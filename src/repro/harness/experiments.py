"""The paper's evaluation as one table — Tables I/II and E0–E8 — plus the E9 chaos pack.

Every table and figure is a row of :data:`FIGURES`: a scenario grid declared
with the fluent :class:`~repro.harness.builder.Scenario` builder, a rows
function that turns the grid's :class:`ResultRow` results into the rows the
paper plots, and the claims those rows must satisfy, each with its status
against the paper.  :func:`run_figure` runs one grid through a
:class:`~repro.harness.runner.ScenarioRunner` (``workers`` fans it out over a
process pool); ``benchmarks/test_figures.py`` runs every row and checks its
claims, and :func:`claims_table` renders them for the README.

Scale: the paper runs 96-node deployments for three minutes of wall time on
Google Cloud.  The figures run at the reduced scale below — 36 nodes in the
cluster sweeps, seconds of *virtual* time — and paper scale is not run.
Shapes (who wins, how curves trend) are what the claims check; absolute
numbers are not comparable to the paper's testbed either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.complexity import complexity_table
from repro.harness.builder import Scenario
from repro.harness.deployment import Deployment
from repro.harness.runner import ResultRow, ScenarioRunner, run_in_process, run_scenario
from repro.harness.scenario import ScenarioSpec
from repro.net.adversity import RttTrace
from repro.net.latency import paper_rtt_matrix

#: Region rotation used when spreading clusters across the paper's 3 regions.
PAPER_REGIONS = ("us-west1", "europe-west3", "asia-south1")

Row = Dict[str, object]


def print_rows(rows: Sequence[Row], title: str = "") -> None:
    """Print result rows as an aligned text table."""
    if title:
        print(f"\n== {title} ==")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), max(len(_fmt(r.get(c))) for r in rows)) for c in columns}
    print("  ".join(str(c).ljust(widths[c]) for c in columns))
    for row in rows:
        print("  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


#: Fault-detection/retry overrides sized for short simulated runs.  Clients
#: must fail over quickly when churn or faults remove the replica they were
#: talking to; the paper's 3-minute runs can afford long retries, seconds-long
#: simulations cannot.
FAST_TIMEOUTS: Dict[str, object] = {
    "remote_timeout": 5.0,
    "instance_timeout": 5.0,
    "brd_timeout": 5.0,
    "retry_timeout": 2.0,
}


def _split_nodes(total: int, clusters: int) -> List[int]:
    """Split ``total`` nodes into ``clusters`` groups as evenly as possible."""
    base = total // clusters
    remainder = total % clusters
    return [base + (1 if index < remainder else 0) for index in range(clusters)]


def _sweep_shapes(total_nodes: int, clusters: int, multi_region: bool) -> List[Tuple[int, str]]:
    sizes = _split_nodes(total_nodes, clusters)
    if multi_region:
        return [(size, PAPER_REGIONS[index % len(PAPER_REGIONS)]) for index, size in enumerate(sizes)]
    return [(size, "us-west1") for size in sizes]


def heterogeneity_setups(scale: int) -> Dict[str, Tuple[List[Tuple[int, str]], Dict[str, str]]]:
    """The paper's three E3 setups at a given scale factor.

    There are ``9·s`` nodes in Asia and ``5·s`` in EU.  Setup 1 (homogeneous
    clusters) is forced to build two equal clusters, so one cluster spans the
    two regions (``2s`` Asia + ``5s`` EU members).  Setup 2 (heterogeneous)
    aligns clusters with regions.  Setup 3 further splits the large Asian
    group into two co-located clusters.

    Returns ``{setup_name: (cluster_specs, region_overrides)}``.
    """
    asia = "asia-south1"
    europe = "europe-west3"
    setup1_specs = [(7 * scale, asia), (7 * scale, europe)]
    # Setup 1's second cluster has 2·s members in Asia and 5·s in EU.
    setup1_overrides = {f"c1/r{i}": asia for i in range(2 * scale)}
    return {
        "setup1": (setup1_specs, setup1_overrides),
        "setup2": ([(9 * scale, asia), (5 * scale, europe)], {}),
        "setup3": ([(5 * scale, asia), (4 * scale, asia), (5 * scale, europe)], {}),
    }


def _window_mean(series: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    values = [value for t, value in series if start <= t < end]
    return sum(values) / len(values) if values else 0.0


# ---------------------------------------------------------------------- #
# The figures table: Tables I/II and E0–E8
# ---------------------------------------------------------------------- #
#: The reduced scale: simulated seconds per cluster-sweep point, nodes
#: spread over the sweep's clusters, closed-loop threads per client.
DURATION = 1.5
NODES = 36
THREADS = 12
CLUSTER_COUNTS = (2, 3, 4, 6)
ENGINES = ("hotstuff", "bftsmart")

#: ``reproduced``: the paper's statement holds as asserted.  ``trend-only``:
#: its direction holds, under a bound looser than the paper's numbers.
#: ``deviates``: it does not hold here, and the claim asserts what does.
CLAIM_STATUSES = ("reproduced", "trend-only", "deviates")

Rows = Callable[[List[ResultRow]], List[Row]]
Predicate = Callable[[List[Row]], bool]


class Claim(NamedTuple):
    """One statement about a figure's rows; any status but ``reproduced`` says why."""

    text: str
    holds: Predicate
    status: str = "reproduced"
    reason: str = ""


@dataclass(frozen=True)
class Figure:
    """One table or figure of the paper.

    Attributes:
        title: Printed above the rows.
        grid: The scenarios it runs, in order (none for the analytic tables).
        rows: ``(results) -> rows`` — what it prints and its claims read.
        claims: What the rows must show.
    """

    title: str
    grid: Tuple[Scenario, ...]
    rows: Rows
    claims: Tuple[Claim, ...]


def _scenario(name: str, *clusters: object, engine: str = "hotstuff", seed: int,
              duration: float = DURATION, warmup: Optional[float] = 0.5,
              config: Dict[str, object] = FAST_TIMEOUTS) -> Scenario:
    builder = Scenario(name).clusters(*clusters).engine(engine).config(**config).threads(THREADS)
    return builder.duration(duration, warmup=warmup).seed(seed)


def _columns(*names: str, **derived: Callable[[ResultRow], object]) -> Rows:
    """The default rows: each result's labels, the named attributes, then derived columns."""
    return lambda results: [
        {**r.labels, **{n: getattr(r, n) for n in names}, **{n: f(r) for n, f in derived.items()}}
        for r in results
    ]


def _matching(rows: List[Row], match: Dict[str, object]) -> List[Row]:
    return [row for row in rows if all(row[key] == value for key, value in match.items())]


def _cell(rows: List[Row], **match: object) -> Row:
    """The first row whose columns equal ``match``."""
    return _matching(rows, match)[0]


def _trend(rows: List[Row], column: str, order: str = "clusters", **match: object) -> float:
    """How far ``column`` moves from the first to the last row matching ``match`` by ``order``."""
    series = sorted(_matching(rows, match), key=lambda row: row[order])
    return series[-1][column] - series[0][column]


def _each_engine(test: Callable[[List[Row], str], bool]) -> Predicate:
    return lambda rows: all(test(rows, engine) for engine in ENGINES)


# Tables I and II -------------------------------------------------------- #
_TABLE1_CLAIMS = (
    Claim("Ava-HotStuff decides z = 4 values per exchange",
          lambda rows: _cell(rows, protocol="Ava-HotStuff")["decisions"] == 4),
    Claim("PBFT decides one value per exchange",
          lambda rows: _cell(rows, protocol="PBFT")["decisions"] == 1),
    Claim("Ava-BftSmart's local complexity (quadratic in n) exceeds Ava-HotStuff's (linear)",
          lambda rows: _cell(rows, protocol="Ava-BftSmart")["local"]
          > _cell(rows, protocol="Ava-HotStuff")["local"]),
)


def _rtt_rows(_: List[ResultRow]) -> List[Row]:
    return [{"region": origin, **destinations} for origin, destinations in paper_rtt_matrix().items()]


def _rtt(origin: str, destination: str, ms: float) -> Claim:
    return Claim(f"{origin}-{destination} RTT is {ms:.0f} ms",
                 lambda rows: _cell(rows, region=origin)[destination] == ms)


# E0 / E1: throughput and latency vs number of clusters ------------------ #
def _sweep(regions: int) -> Tuple[Scenario, ...]:
    return tuple(
        _scenario(f"sweep/{engine}/z{clusters}", *_sweep_shapes(NODES, clusters, regions > 1),
                  engine=engine, seed=1)
        .label(engine=engine, clusters=clusters, nodes=NODES, regions=regions)
        for engine in ENGINES
        for clusters in CLUSTER_COUNTS
    )


_SWEEP_ROWS = _columns("throughput", "latency_mean", "latency_write", "rounds")
_SCALES_OUT = Claim("Throughput rises from 2 to 6 clusters (both engines)",
                    _each_engine(lambda rows, engine: _trend(rows, "throughput", engine=engine) > 0))
_E0_CLAIMS = (
    _SCALES_OUT,
    Claim("Write latency falls from 2 to 6 clusters (both engines)",
          _each_engine(lambda rows, engine: _trend(rows, "latency_write", engine=engine) < 0)),
)
_E1_CLAIMS = (
    _SCALES_OUT,
    Claim("Every cell commits writes (positive write latency)",
          lambda rows: all(row["latency_write"] > 0 for row in rows),
          "deviates",
          "Fig. 3 (right) also has write latency falling as clusters grow, because intra-cluster "
          "replication of 48-node clusters dominates; at this scale the WAN exchange dominates "
          "instead, so the latency trend is not asserted. Unattributed: that paper scale recovers "
          "it was never checked."),
)

# E2: latency breakdown per stage ---------------------------------------- #
_E2_SETUPS = {
    "1 region": ["asia-south1", "asia-south1", "asia-south1"],
    "2 regions": ["europe-west3", "asia-south1", "asia-south1"],
    "3 regions": ["europe-west3", "asia-south1", "us-west1"],
}
_E2_ROWS = _columns(
    intra_cluster_ms=lambda row: row.stages["stage1"] * 1000,
    inter_cluster_ms=lambda row: row.stages["stage2"] * 1000,
    execution_ms=lambda row: row.stages["stage3"] * 1000,
    read_latency_ms=lambda row: row.latency_read * 1000,
    write_latency_ms=lambda row: row.latency_write * 1000,
    # Mean per-link wire latency; 0 ms self-deliveries never touch the
    # latency model, so this isolates the geo component.
    link_latency_ms=lambda row: (row.network or {}).get("link_latency_mean_ms", 0.0),
)


def _e2(rows: List[Row], setup: str, column: str) -> float:
    return _cell(rows, setup=setup)[column]


_E2_CLAIMS = (
    Claim("One region: intra-cluster replication outlasts the inter-cluster exchange",
          lambda rows: _e2(rows, "1 region", "intra_cluster_ms")
          > _e2(rows, "1 region", "inter_cluster_ms")),
    Claim("Two regions: the inter-cluster exchange outlasts intra-cluster replication",
          lambda rows: _e2(rows, "2 regions", "inter_cluster_ms")
          > _e2(rows, "2 regions", "intra_cluster_ms")),
    Claim("The inter-cluster exchange grows when the farther region (US) is added, as Table II's RTTs do",
          lambda rows: _e2(rows, "3 regions", "inter_cluster_ms")
          > _e2(rows, "2 regions", "inter_cluster_ms")),
    Claim("Reads are served locally and stay cheaper than writes in every setup",
          lambda rows: all(row["read_latency_ms"] < row["write_latency_ms"] for row in rows)),
    Claim("Mean wire link latency is positive and grows from one region to three",
          lambda rows: _e2(rows, "3 regions", "link_latency_ms") > _e2(rows, "1 region", "link_latency_ms") > 0),
)

# E3: heterogeneity setups ----------------------------------------------- #
def _e3(engine: str) -> Tuple[Scenario, ...]:
    return tuple(
        _scenario(f"e3/{engine}/s{scale}/{setup}", *clusters, engine=engine, seed=3)
        .place_many(overrides)
        .label(engine=engine, scale=scale, setup=setup)
        for scale in (1, 2)
        for setup, (clusters, overrides) in heterogeneity_setups(scale).items()
    )


def _each_scale(test: Callable[[Dict[str, Row]], bool]) -> Predicate:
    """``test`` holds at every scale, given that scale's rows by setup."""
    return lambda rows: all(
        test({row["setup"]: row for row in _matching(rows, {"scale": scale})})
        for scale in {row["scale"] for row in rows}
    )


_E3_ROWS = _columns("throughput", "latency_mean", "latency_write")
_E3_CLAIMS = (
    Claim("Region-aligned heterogeneous clusters (setup 2) out-commit the homogeneous split (setup 1)",
          _each_scale(lambda setup: setup["setup2"]["throughput"] > setup["setup1"]["throughput"])),
    Claim("Splitting the large region (setup 3) keeps throughput within 10% of setup 2",
          _each_scale(lambda setup: setup["setup3"]["throughput"] >= setup["setup2"]["throughput"] * 0.9),
          "trend-only",
          "The paper has setup 3 at least as good as setup 2; the claim allows it 10% below."),
    Claim("Setup 2's write latency is below setup 1's wherever setup 1 committed writes",
          _each_scale(lambda setup: setup["setup1"]["latency_write"] <= 0
                      or setup["setup2"]["latency_write"] < setup["setup1"]["latency_write"]),
          "trend-only",
          "With BFT-SMaRt's all-to-all phases over a region-spanning cluster, setup 1 may commit no "
          "write inside the short measurement window at all, which is itself the strongest form of "
          "the paper's point; the comparison is skipped there."),
)

# E4: failures ----------------------------------------------------------- #
_E4_DURATION = 12.0
_E4_FAULT_AT = 4.0


def _e4(scenario: str) -> Scenario:
    timeouts = dict.fromkeys(FAST_TIMEOUTS, 3.0)
    builder = _scenario(f"e4/{scenario}", 10, 10, seed=4, duration=_E4_DURATION, warmup=None, config=timeouts)
    return builder.timeseries(bucket=1.0)


def _series_rows(results: List[ResultRow]) -> List[Row]:
    return [{"time_s": start, "throughput": value} for start, value in results[0].series]


def _e4_windows(rows: List[Row]) -> Tuple[float, float, float]:
    """Mean throughput before the fault, in the two seconds after it, and over the last three."""
    series = [(row["time_s"], row["throughput"]) for row in rows]
    return (
        _window_mean(series, 1.0, _E4_FAULT_AT),
        _window_mean(series, _E4_FAULT_AT, _E4_FAULT_AT + 2.0),
        _window_mean(series, _E4_DURATION - 3.0, float("inf")),
    )


def _recovers(share: float, after: str) -> Claim:
    def holds(rows: List[Row]) -> bool:
        before, _, end = _e4_windows(rows)
        return end > share * before

    return Claim(f"Throughput {after} recovers to above {share:.0%} of the pre-fault level", holds)


_DIPS = Claim("Throughput dips in the two seconds after the fault, while the leader change runs",
              lambda rows: _e4_windows(rows)[1] < _e4_windows(rows)[0])

# E5: reconfiguration ---------------------------------------------------- #
_E5_DURATION = 14.0


def _join_leave() -> Scenario:
    join_time, leave_time = _E5_DURATION * 0.25, _E5_DURATION * 0.6
    builder = _scenario("e5/join_leave", 7, 7, seed=5, duration=_E5_DURATION, warmup=None)
    builder.timeseries(bucket=1.0)
    for cluster_id in (0, 1):
        for index in range(3):
            builder.join(cluster_id, at=join_time + 0.2 * index, replica_id=f"new{cluster_id}.{index}")
        for index in range(3):
            builder.leave(f"c{cluster_id}/r{6 - index}", at=leave_time + 0.2 * index)
    return builder


def _join_leave_rows(results: List[ResultRow]) -> List[Row]:
    (result,) = results
    return [{
        "joins_completed": result.joins_completed,
        "reconfigs_applied": result.reconfigs_applied,
        "throughput_before": _window_mean(result.series, 1.0, _E5_DURATION * 0.25),
        # "After" means after the churn has settled: the last two seconds of
        # the run, once clients have failed over away from departed replicas.
        "throughput_after": _window_mean(result.series, _E5_DURATION - 2.0, _E5_DURATION),
    }]


_E5_1_CLAIMS = (
    Claim("At least 4 of the 6 requested joins complete", lambda rows: rows[0]["joins_completed"] >= 4),
    Claim("Reconfigurations are applied", lambda rows: rows[0]["reconfigs_applied"] > 0),
    Claim("Throughput once the churn has settled stays above half the pre-churn level",
          lambda rows: rows[0]["throughput_after"] > 0.5 * rows[0]["throughput_before"]),
)


def _e5_2() -> Tuple[Scenario, ...]:
    duration = 10.0
    return tuple(
        _scenario(f"e5/workflows/{variant}", 10, 8, seed=6, duration=duration)
        .preset("hamava" if variant == "parallel" else "single_workflow")
        .churn(start=duration * 0.3, period=1.0, clusters=(0,), prefix="churn")
        .label(engine="hotstuff", variant=variant)
        for variant in ("parallel", "single")
    )


_CHURN_ROWS = _columns("throughput", "latency_write", "reconfigs_applied")
_E5_2_CLAIMS = (
    Claim("The parallel workflow keeps at least 0.6x the single workflow's throughput",
          lambda rows: _cell(rows, variant="parallel")["throughput"]
          >= 0.6 * _cell(rows, variant="single")["throughput"],
          "deviates",
          "Fig. 5b has the parallel workflow (Hamava) outperforming reconfiguration ordered through "
          "the transaction consensus. At this scale the transaction batches are far from saturated, "
          "so the single workflow's sequencing penalty barely shows while BRD's per-round messages "
          "still cost something; only parity within noise is asserted."),
    Claim("The parallel workflow keeps applying reconfigurations",
          lambda rows: _cell(rows, variant="parallel")["reconfigs_applied"] > 0),
    Claim("The single workflow keeps applying reconfigurations",
          lambda rows: _cell(rows, variant="single")["reconfigs_applied"] > 0),
)

# E6: comparison with GeoBFT --------------------------------------------- #
def _e6(regions: int) -> Tuple[Scenario, ...]:
    """Hamava over HotStuff against GeoBFT over BFT-SMaRt with pipelined
    local ordering (the ``geobft`` preset fixes the engine)."""
    return tuple(
        _scenario(f"e6/{preset}/z{clusters}", *_sweep_shapes(NODES, clusters, regions > 1),
                  engine="hotstuff" if preset == "hamava" else "bftsmart", seed=7)
        .preset(preset)
        .label(clusters=clusters)
        for clusters in CLUSTER_COUNTS
        for preset in ("hamava", "geobft")
    )


def _paired_arms(results: List[ResultRow]) -> List[Row]:
    """One row per cluster count, the two arms side by side (the grid
    alternates Hamava and GeoBFT, fewest clusters first)."""
    rows: List[Row] = []
    for ava, geo in zip(results[::2], results[1::2]):
        row: Row = {"clusters": ava.labels["clusters"]}
        for arm, result in (("ava_hotstuff", ava), ("geobft", geo)):
            row[f"{arm}_throughput"] = result.throughput
            row[f"{arm}_latency"] = result.latency_mean
            row[f"{arm}_read_latency"] = result.latency_read
            row[f"{arm}_messages"] = result.network["messages_sent"]
        rows.append(row)
    return rows


def _geobft_over(share: float, column: str) -> Predicate:
    """At 2 clusters GeoBFT's ``column`` exceeds ``share`` times Ava-HotStuff's."""
    return lambda rows: rows[0][f"geobft_{column}"] > rows[0][f"ava_hotstuff_{column}"] * share


def _geobft_share(row: Row) -> float:
    return row["geobft_throughput"] / max(row["ava_hotstuff_throughput"], 1e-9)


def _arm_scales(arm: str, label: str) -> Claim:
    return Claim(f"{label}'s throughput rises from 2 to 6 clusters",
                 lambda rows: _trend(rows, f"{arm}_throughput") > 0)


_E6_CAUSE = ("Not a statement of the paper: the measured cause of the first claim's deviation "
             '(README "Protocol deviations").')
_E6_1_CLAIMS = (
    Claim("At 2 clusters GeoBFT reaches more than 0.6x Ava-HotStuff's throughput",
          _geobft_over(0.6, "throughput"),
          "deviates",
          "Fig. 6a has GeoBFT ahead at few, large clusters in one region; here it trails, because "
          "its local reads queue behind its all-to-all ordering traffic on the receiver CPU "
          '(README "Protocol deviations").'),
    Claim("GeoBFT gains relative ground as the cluster count grows",
          lambda rows: _geobft_share(rows[-1]) > _geobft_share(rows[0])),
    Claim("At 2 clusters GeoBFT sends more than 3x Ava-HotStuff's wire messages",
          _geobft_over(3, "messages"), "deviates", _E6_CAUSE),
    Claim("At 2 clusters GeoBFT's mean read latency is more than 2x Ava-HotStuff's",
          _geobft_over(2, "read_latency"), "deviates", _E6_CAUSE),
    _arm_scales("ava_hotstuff", "Ava-HotStuff"),
)
_E6_2_CLAIMS = (
    _arm_scales("ava_hotstuff", "Ava-HotStuff"),
    _arm_scales("geobft", "GeoBFT"),
    Claim("GeoBFT commits at every cluster count",
          lambda rows: all(row["geobft_throughput"] > 0 for row in rows),
          "deviates",
          "Fig. 6b has GeoBFT ahead at few clusters; here Ava-HotStuff is ahead across the sweep, "
          "so only GeoBFT's progress is asserted. Unlike E6.1's, this level deviation is unattributed."),
)

# E7 / E8: churn frequency and inter-cluster latency --------------------- #
def _e7() -> Tuple[Scenario, ...]:
    duration = 8.0
    grid = []
    for engine in ENGINES:
        for label, period in (("none", None), ("periodic", 2.0), ("continuous", 0.5)):
            builder = _scenario(f"e7/{engine}/{label}", 10, 10, engine=engine, seed=8,
                                duration=duration, warmup=duration * 0.35)
            builder.label(engine=engine, reconfig_frequency=label)
            if period is not None:
                builder.churn(start=duration * 0.3, period=period, clusters=(0, 1), prefix=f"freq{engine}.")
            grid.append(builder)
    return tuple(grid)


def _frequency(rows: List[Row], engine: str, label: str) -> Row:
    return _cell(rows, engine=engine, reconfig_frequency=label)


_E7_CLAIMS = (
    Claim("Continuous churn keeps throughput above half the churn-free level (both engines)",
          _each_engine(lambda rows, engine: _frequency(rows, engine, "continuous")["throughput"]
                       > 0.5 * _frequency(rows, engine, "none")["throughput"]),
          "trend-only",
          "The paper reports a worst-case drop of roughly 10-15%; the bound is generous to absorb "
          "simulator noise at reduced scale."),
    Claim("Continuous churn applies reconfigurations (both engines)",
          _each_engine(lambda rows, engine: _frequency(rows, engine, "continuous")["reconfigs_applied"] > 0)),
)


def _e8() -> Tuple[Scenario, ...]:
    duration = 6.0
    remote_sites = {"us-east5": 52.0, "asia-northeast1": 91.0, "europe-west3": 142.0, "asia-south1": 219.0}
    return tuple(
        _scenario(f"e8/hotstuff/{region}", (10, "us-west1"), (10, region), seed=9,
                  duration=duration, warmup=duration * 0.35)
        .rtt("us-west1", region, rtt)
        .churn(start=duration * 0.3, period=1.0, clusters=(0, 1), prefix=f"e8hotstuff.{region}.")
        .label(engine="hotstuff", second_cluster_region=region, rtt_ms=rtt)
        for region, rtt in remote_sites.items()
    )


_E8_CLAIMS = (
    Claim("Throughput falls as the second cluster moves from 52 to 219 ms RTT",
          lambda rows: _trend(rows, "throughput", "rtt_ms") < 0),
    Claim("Write latency rises as the second cluster moves from 52 to 219 ms RTT",
          lambda rows: _trend(rows, "latency_write", "rtt_ms") > 0),
    Claim("Reconfigurations are applied at every RTT",
          lambda rows: all(row["reconfigs_applied"] > 0 for row in rows)),
)

#: Every table and figure of the paper's evaluation, in report order.
FIGURES: Dict[str, Figure] = {
    "table1": Figure("Table I: best-case complexity (z=4, n=24)", (),
                     lambda _: [dict(row) for row in complexity_table(z=4, n=24)], _TABLE1_CLAIMS),
    "table2": Figure("Table II: inter-region RTT (ms)", (), _rtt_rows,
                     (_rtt("US", "EU", 148.0), _rtt("US", "Asia", 214.0), _rtt("EU", "Asia", 134.0))),
    "e0": Figure("E0: clusters sweep, single region (Fig. 3 left)", _sweep(1), _SWEEP_ROWS, _E0_CLAIMS),
    "e1": Figure("E1: clusters sweep, three regions (Fig. 3 right)", _sweep(3), _SWEEP_ROWS, _E1_CLAIMS),
    "e2": Figure(
        "E2: latency breakdown (Fig. 4a)",
        tuple(
            _scenario(f"e2/{label}", *[(4, region) for region in regions], seed=2, duration=2.0)
            .stages()
            .label(setup=label, engine="hotstuff")
            for label, regions in _E2_SETUPS.items()
        ),
        _E2_ROWS,
        _E2_CLAIMS,
    ),
    "e3_hotstuff": Figure("E3: heterogeneity, AVA-HOTSTUFF (Fig. 4b/4c)", _e3("hotstuff"), _E3_ROWS,
                          _E3_CLAIMS),
    "e3_bftsmart": Figure("E3: heterogeneity, AVA-BFTSMART (Fig. 4d/4e)", _e3("bftsmart"), _E3_ROWS,
                          _E3_CLAIMS),
    "e4_1": Figure(
        "E4.1: up to f non-leader crashes (Fig. 4f)",
        (_e4("non_leader").crash_non_leaders(0, at=_E4_FAULT_AT).crash_non_leaders(1, at=_E4_FAULT_AT),),
        _series_rows,
        (_recovers(0.3, "after up to f non-leader crashes per cluster"),),
    ),
    "e4_2": Figure(
        "E4.2: leader crash (Fig. 4g)",
        (_e4("leader").crash_leader(0, at=_E4_FAULT_AT),),
        _series_rows,
        (_DIPS, _recovers(0.5, "after the leader change")),
    ),
    "e4_3": Figure(
        "E4.3: Byzantine leader, remote leader change (Fig. 4h)",
        (_e4("byzantine_leader").byzantine_leader(0, at=_E4_FAULT_AT),),
        _series_rows,
        (_DIPS, _recovers(0.6, "after the remote leader change replaces the silent leader")),
    ),
    "e5_1": Figure("E5.1: throughput during join/leave bursts (Fig. 5a)", (_join_leave(),),
                   _join_leave_rows, _E5_1_CLAIMS),
    "e5_2": Figure("E5.2: parallel vs single reconfiguration workflow (Fig. 5b)", _e5_2(), _CHURN_ROWS,
                   _E5_2_CLAIMS),
    "e6_1": Figure("E6.1: AVA-HOTSTUFF vs GeoBFT, single region (Fig. 6a)", _e6(1), _paired_arms,
                   _E6_1_CLAIMS),
    "e6_2": Figure("E6.2: AVA-HOTSTUFF vs GeoBFT, multiple regions (Fig. 6b)", _e6(3), _paired_arms,
                   _E6_2_CLAIMS),
    "e7": Figure("E7: reconfiguration frequency (Fig. 7)", _e7(), _CHURN_ROWS, _E7_CLAIMS),
    "e8": Figure("E8: network latency during reconfiguration (Fig. 8)", _e8(), _CHURN_ROWS, _E8_CLAIMS),
}


def run_figure(name: str, workers: int = 1) -> List[Row]:
    """Run one figure's grid (a key of :data:`FIGURES`) and return its rows."""
    figure = FIGURES[name]
    return figure.rows(ScenarioRunner(workers=workers).run(figure.grid))


def claims_table() -> str:
    """Every claim as one markdown table row: figure, claim, status, reason."""
    lines = ["| Figure | Claim | Status | Reason |", "|---|---|---|---|"]
    for name, figure in FIGURES.items():
        lines.extend(f"| `{name}` | {c.text} | {c.status} | {c.reason} |" for c in figure.claims)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# E9: adversarial network & gray failures (chaos scenario pack)
# ---------------------------------------------------------------------- #
#: Every E9 fault starts a quarter into the run.
_E9_FAULT_AT = 0.25

#: Aggressive 1-second detection: flapping keeps stalling rounds just as the
#: previous timeout recovery completes, so timeouts must be shorter than the
#: recovery runway.
_E9_ONE_SECOND: Dict[str, object] = {
    "remote_timeout": 1.0,
    "instance_timeout": 1.0,
    "brd_timeout": 1.0,
    "retry_timeout": 1.0,
}

#: Clock rate of the skewed followers.  It turns the 1 s timeouts into 5 ms:
#: a 4-replica LAN decision takes about 5 ms here, and a skewed timer has to
#: expire before the healthy leader decides for a complaint about it to be
#: raised (a 20 ms timer, rate 0.02, never does).
_E9_SKEW_RATE = 0.005

#: One E9 run: the serial row plus the deployment it came from, for state
#: the row does not carry.
_E9Run = Tuple[ResultRow, Deployment]


def _gray_leader(builder: Scenario, duration: float, seed: int) -> None:
    # Slow, not dead: it keeps answering — late — so only timeout-based
    # detection can catch it.
    builder.gray_leader(0, at=duration * _E9_FAULT_AT, factor=400.0)


def _check_gray_leader(run: _E9Run, control: Optional[_E9Run], duration: float):
    row, deployment = run
    initial_leader = sorted(deployment.system_config.members(0))[0]
    new_leader = deployment.leader_of(0).process_id
    assertions = {
        "leader_changed": new_leader != initial_leader,
        "progress_after_fault": _window_mean(row.series, duration - 2.0, duration) > 0.0,
    }
    return assertions, {
        "fault_time": duration * _E9_FAULT_AT,
        "initial_leader": initial_leader,
        "new_leader": new_leader,
        "throughput": row.throughput,
    }


def _clock_skew(builder: Scenario, duration: float, seed: int) -> None:
    # Fast local clocks on two followers: their complaint timers expire long
    # before the healthy leader is actually late.
    for replica in ("r0.1", "r0.2"):
        builder.clock_skew(replica, at=duration * _E9_FAULT_AT, rate=_E9_SKEW_RATE)


def _last_leader_change(run: _E9Run) -> float:
    return max(replica.last_leader_change for replica in run[1].cluster_replicas(0))


def _check_clock_skew(run: _E9Run, control: Optional[_E9Run], duration: float):
    skew_changes = _last_leader_change(run)
    assertions = {
        "spurious_leader_change": skew_changes > 0.0,
        "control_is_stable": _last_leader_change(control) == 0.0,
    }
    return assertions, {"rate": _E9_SKEW_RATE, "skew_leader_change_at": skew_changes}


def _flapping_partition(builder: Scenario, duration: float, seed: int) -> None:
    builder.flapping_partition(
        0, 1, at=duration * _E9_FAULT_AT, period=0.5, duty=0.5, cycles=3
    )


def _region_outage(builder: Scenario, duration: float, seed: int) -> None:
    # The third region loses its WAN uplink for 15% of the run, then heals.
    builder.region_outage(
        PAPER_REGIONS[-1], at=duration * _E9_FAULT_AT, duration=duration * 0.15
    )


def _check_recovery(run: _E9Run, control: Optional[_E9Run], duration: float):
    """Drops happened, and goodput over the final two seconds (well after
    the fault healed) is back to at least half the pre-fault level."""
    row = run[0]
    before = _window_mean(row.series, 0.0, duration * _E9_FAULT_AT)
    after = _window_mean(row.series, duration - 2.0, duration)
    dropped = int(row.network["messages_dropped"])
    assertions = {"messages_dropped": dropped > 0, "goodput_recovered": after >= 0.5 * before}
    return assertions, {"dropped": dropped, "goodput_before": before, "goodput_after": after}


def _congestion(builder: Scenario, duration: float, seed: int) -> None:
    # A background stream near the us-west1 -> europe-west3 link's modelled
    # capacity for the middle half of the run.
    builder.congestion()
    builder.cross_traffic(
        "us-west1", "europe-west3", 1.1e8, start=duration * _E9_FAULT_AT, stop=duration * 0.75
    )


def _check_congestion(run: _E9Run, control: Optional[_E9Run], duration: float):
    row = run[0]
    congested_ms = float(row.network["link_latency_mean_ms"])
    control_ms = float(control[0].network["link_latency_mean_ms"])
    assertions = {"latency_inflated": congested_ms > control_ms, "still_committing": row.operations > 0}
    return assertions, {
        "link_latency_ms": congested_ms,
        "control_latency_ms": control_ms,
        "throughput": row.throughput,
    }


def _rtt_trace(builder: Scenario, duration: float, seed: int) -> None:
    # A synthetic cloud-pair trace (wander + congestion spikes); the
    # lookahead floor now moves between trace segments.
    builder.rtt_trace(
        RttTrace.synthetic(pairs=[("us-west1", "europe-west3", 148.0)], duration=duration, seed=seed)
    )


def _check_rtt_trace(run: _E9Run, control: Optional[_E9Run], duration: float):
    row, control_row = run[0], control[0]
    assertions = {
        "trace_changes_run": row.to_json() != control_row.to_json(),
        "still_committing": row.operations > 0,
    }
    return assertions, {"throughput": row.throughput, "control_throughput": control_row.throughput}


@dataclass(frozen=True)
class _E9Case:
    """One chaos preset over the shared base scenario.

    Attributes:
        adversity: ``(builder, duration, seed)`` — schedules the fault.
        check: ``(run, control, duration) -> (assertions, extra row keys)``.
        control: Also run the fault-free base under the same seed (named
            ``<name>_control``) for ``check`` to compare against.
        config: Timeout overrides.
        clusters: Topology (default: one 4-replica cluster in each of two
            regions).
        parity_shards: Forked worker counts whose rows must equal the
            serial row.
    """

    adversity: Callable[[Scenario, float, int], None]
    check: Callable[[_E9Run, Optional[_E9Run], float], Tuple[Dict[str, bool], Row]]
    control: bool = False
    config: Dict[str, object] = field(default_factory=lambda: _E9_ONE_SECOND)
    clusters: Tuple[Tuple[int, str], ...] = ((4, "us-west1"), (4, "europe-west3"))
    parity_shards: Tuple[int, ...] = (2,)


#: The pack, in report order.  Pinned per case: E9.1 leadership moves off the
#: gray leader and commits continue; E9.2 the skewed run changes leader with
#: no real fault while the control does not; E9.3/E9.4 drops occur and
#: goodput recovers; E9.5 mean wire latency rises above the control's; E9.6
#: the trace changes the run.  Every case also pins serial-vs-forked parity.
E9_CASES: Dict[str, _E9Case] = {
    "gray_leader": _E9Case(_gray_leader, _check_gray_leader),
    "clock_skew": _E9Case(_clock_skew, _check_clock_skew, control=True),
    "flapping_partition": _E9Case(_flapping_partition, _check_recovery),
    "region_outage": _E9Case(
        _region_outage, _check_recovery, clusters=tuple((4, region) for region in PAPER_REGIONS)
    ),
    "congestion": _E9Case(_congestion, _check_congestion, control=True, config=FAST_TIMEOUTS),
    "rtt_trace": _E9Case(
        _rtt_trace, _check_rtt_trace, control=True, config=FAST_TIMEOUTS, parity_shards=(2, 4)
    ),
}


def run_e9(
    name: str,
    duration: float = 6.0,
    engine: str = "hotstuff",
    seed: int = 9,
    client_threads: int = 4,
) -> Row:
    """Run one E9 chaos preset (a key of :data:`E9_CASES`).

    One shape for every case: the serial run, a forked re-run per
    ``parity_shards`` whose row must serialize identically (the PR-7 parity
    contract extended to adversity scenarios), a fault-free control where
    the case compares against one, then the case's pinned assertions.
    """
    case = E9_CASES[name]

    def spec(suffix: str = "", shards: int = 1) -> ScenarioSpec:
        builder = (
            Scenario(f"e9/{name}{suffix}")
            .clusters(*case.clusters)
            .engine(engine)
            .config(**case.config)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
            .timeseries(bucket=1.0)
            .shards(shards, parallel=shards > 1)
        )
        if not suffix:
            case.adversity(builder, duration, seed)
        return builder.spec()

    run = run_in_process(spec())
    serial = run[0].to_json()
    parity = all(run_scenario(spec(shards=n)).to_json() == serial for n in case.parity_shards)
    control = run_in_process(spec("_control")) if case.control else None
    assertions, extra = case.check(run, control, duration)
    assertions["sharded_parity"] = parity
    return {
        "experiment": name,
        "passed": all(assertions.values()),
        "assertions": assertions,
        "engine": engine,
        **extra,
    }


__all__ = [
    "CLAIM_STATUSES",
    "E9_CASES",
    "FAST_TIMEOUTS",
    "FIGURES",
    "PAPER_REGIONS",
    "Claim",
    "Figure",
    "claims_table",
    "heterogeneity_setups",
    "print_rows",
    "run_e9",
    "run_figure",
]
