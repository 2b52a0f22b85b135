"""Runners for the paper's evaluation (E0–E8, Tables I/II) plus the E9 chaos pack.

Each ``run_*`` function declares the scenarios for one figure/table with the
fluent :class:`~repro.harness.builder.Scenario` builder, executes them
through a :class:`~repro.harness.runner.ScenarioRunner`, and returns a list
of result rows (dictionaries) that mirror the series the paper plots.  The
benchmark suite and the examples are thin wrappers around these runners.
Runners that execute a grid of scenarios accept ``workers`` to fan the grid
out over a process pool (the single-scenario runners ``run_e4`` and
``run_e5_join_leave`` have nothing to parallelize).

Scale notes: the paper runs 96-node deployments for three minutes of wall
time on Google Cloud.  The runners default to smaller node counts and a few
seconds of *virtual* time so the whole suite completes quickly; pass
``total_nodes``/``duration`` explicitly (or set the ``REPRO_FULL_SCALE``
environment variable) to run at paper scale.  Shapes — who wins, how curves
trend — are preserved at the reduced scale; absolute numbers are not
comparable to the paper's testbed either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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


def full_scale() -> bool:
    """Whether paper-scale parameters were requested via the environment."""
    return os.environ.get("REPRO_FULL_SCALE", "0") not in ("", "0", "false", "False")


def default_duration(fallback: float) -> float:
    """Simulated seconds per data point (env override: ``REPRO_DURATION``)."""
    value = os.environ.get("REPRO_DURATION")
    if value:
        return float(value)
    return 180.0 if full_scale() else fallback


def default_nodes(fallback: int) -> int:
    """Total nodes for the cluster-sweep experiments."""
    value = os.environ.get("REPRO_TOTAL_NODES")
    if value:
        return int(value)
    return 96 if full_scale() else fallback


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


def _run_all(scenarios: Sequence[Scenario], workers: int) -> List[ResultRow]:
    return ScenarioRunner(workers=workers).run(scenarios)


# ---------------------------------------------------------------------- #
# Tables I and II
# ---------------------------------------------------------------------- #
def run_table1(z: int = 4, n: int = 24) -> List[Row]:
    """Table I: best-case complexity of the protocols."""
    return [dict(row) for row in complexity_table(z=z, n=n)]


def run_table2() -> List[Row]:
    """Table II: inter-region round-trip latency matrix."""
    matrix = paper_rtt_matrix()
    rows: List[Row] = []
    for origin, destinations in matrix.items():
        row: Row = {"region": origin}
        row.update(destinations)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------- #
# E0 / E1: throughput and latency vs number of clusters
# ---------------------------------------------------------------------- #
def run_cluster_sweep(
    engines: Sequence[str] = ("hotstuff", "bftsmart"),
    cluster_counts: Sequence[int] = (2, 3, 4, 6, 8, 12),
    total_nodes: Optional[int] = None,
    multi_region: bool = False,
    duration: Optional[float] = None,
    warmup: float = 0.5,
    client_threads: int = 24,
    seed: int = 1,
    workers: int = 1,
) -> List[Row]:
    """Shared sweep behind E0 (single region) and E1 (three regions)."""
    total_nodes = total_nodes if total_nodes is not None else default_nodes(48)
    duration = duration if duration is not None else default_duration(2.5)
    scenarios = [
        Scenario(f"sweep/{engine}/z{clusters}")
        .clusters(*_sweep_shapes(total_nodes, clusters, multi_region))
        .engine(engine)
        .config(**FAST_TIMEOUTS)
        .threads(client_threads)
        .duration(duration, warmup=warmup)
        .seed(seed)
        .label(
            engine=engine,
            clusters=clusters,
            nodes=total_nodes,
            regions=3 if multi_region else 1,
        )
        for engine in engines
        for clusters in cluster_counts
    ]
    return [
        {
            **row.labels,
            "throughput": row.throughput,
            "latency_mean": row.latency_mean,
            "latency_write": row.latency_write,
            "rounds": row.rounds,
        }
        for row in _run_all(scenarios, workers)
    ]


# ---------------------------------------------------------------------- #
# E2: latency breakdown per stage
# ---------------------------------------------------------------------- #
def run_e2(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    warmup: float = 0.5,
    client_threads: int = 12,
    seed: int = 2,
    workers: int = 1,
) -> List[Row]:
    """E2: per-stage latency breakdown for 3 clusters of 4 nodes (Fig. 4a)."""
    duration = duration if duration is not None else default_duration(3.0)
    setups = {
        "1 region": ["asia-south1", "asia-south1", "asia-south1"],
        "2 regions": ["europe-west3", "asia-south1", "asia-south1"],
        "3 regions": ["europe-west3", "asia-south1", "us-west1"],
    }
    scenarios = [
        Scenario(f"e2/{label}")
        .clusters(*[(4, region) for region in regions])
        .engine(engine)
        .config(**FAST_TIMEOUTS)
        .threads(client_threads)
        .duration(duration, warmup=warmup)
        .seed(seed)
        .stages()
        .label(setup=label, engine=engine)
        for label, regions in setups.items()
    ]
    return [
        {
            **row.labels,
            "intra_cluster_ms": row.stages["stage1"] * 1000,
            "inter_cluster_ms": row.stages["stage2"] * 1000,
            "execution_ms": row.stages["stage3"] * 1000,
            "read_latency_ms": row.latency_read * 1000,
            "write_latency_ms": row.latency_write * 1000,
            # Mean per-link wire latency; self-deliveries are excluded from
            # the aggregate by construction (0 ms loop-back never touches
            # the latency model), so this isolates the geo component.
            "link_latency_ms": (row.network or {}).get("link_latency_mean_ms", 0.0),
        }
        for row in _run_all(scenarios, workers)
    ]


# ---------------------------------------------------------------------- #
# E3: heterogeneity setups
# ---------------------------------------------------------------------- #
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


def run_e3(
    engines: Sequence[str] = ("hotstuff", "bftsmart"),
    scales: Sequence[int] = (1, 2, 3),
    duration: Optional[float] = None,
    warmup: float = 0.5,
    client_threads: int = 16,
    seed: int = 3,
    workers: int = 1,
) -> List[Row]:
    """E3: impact of heterogeneity on throughput and latency (Fig. 4b–4e)."""
    duration = duration if duration is not None else default_duration(2.5)
    scenarios = [
        Scenario(f"e3/{engine}/s{scale}/{setup_name}")
        .clusters(*clusters)
        .engine(engine)
        .config(**FAST_TIMEOUTS)
        .place_many(overrides)
        .threads(client_threads)
        .duration(duration, warmup=warmup)
        .seed(seed)
        .label(engine=engine, scale=scale, setup=setup_name)
        for engine in engines
        for scale in scales
        for setup_name, (clusters, overrides) in heterogeneity_setups(scale).items()
    ]
    return [
        {
            **row.labels,
            "throughput": row.throughput,
            "latency_mean": row.latency_mean,
            "latency_write": row.latency_write,
        }
        for row in _run_all(scenarios, workers)
    ]


# ---------------------------------------------------------------------- #
# E4: failures
# ---------------------------------------------------------------------- #
def run_e4(
    scenario: str,
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    fault_time: float = 4.0,
    client_threads: int = 16,
    seed: int = 4,
    nodes_per_cluster: int = 10,
) -> List[Row]:
    """E4: throughput over time under failures (Fig. 4f/4g/4h).

    Args:
        scenario: ``"non_leader"`` (E4.1), ``"leader"`` (E4.2), or
            ``"byzantine_leader"`` (E4.3).
    """
    duration = duration if duration is not None else default_duration(12.0)
    builder = (
        Scenario(f"e4/{scenario}")
        .clusters(nodes_per_cluster, nodes_per_cluster)
        .engine(engine)
        .timeouts(3.0)
        .config(retry_timeout=3.0)
        .threads(client_threads)
        .duration(duration)
        .seed(seed)
        .timeseries(bucket=1.0)
    )
    if scenario == "non_leader":
        for cluster_id in (0, 1):
            builder.crash_non_leaders(cluster_id, at=fault_time)
    elif scenario == "leader":
        builder.crash_leader(0, at=fault_time)
    elif scenario == "byzantine_leader":
        builder.byzantine_leader(0, at=fault_time)
    else:
        raise ValueError(f"unknown E4 scenario {scenario!r}")
    row = builder.run_one()
    return [
        {
            "scenario": scenario,
            "engine": engine,
            "time_s": start,
            "throughput": value,
            "fault_time": fault_time,
        }
        for start, value in row.series
    ]


# ---------------------------------------------------------------------- #
# E5: reconfiguration
# ---------------------------------------------------------------------- #
def run_e5_join_leave(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    client_threads: int = 16,
    seed: int = 5,
    joins: int = 3,
    leaves: int = 3,
) -> Dict[str, object]:
    """E5.1: join and leave bursts against two 7-node clusters (Fig. 5a)."""
    duration = duration if duration is not None else default_duration(12.0)
    join_time = duration * 0.25
    leave_time = duration * 0.6
    builder = (
        Scenario("e5/join_leave")
        .clusters(7, 7)
        .engine(engine)
        .config(**FAST_TIMEOUTS)
        .threads(client_threads)
        .duration(duration)
        .seed(seed)
        .timeseries(bucket=1.0)
    )
    for cluster_id in (0, 1):
        for index in range(joins):
            builder.join(cluster_id, at=join_time + 0.2 * index, replica_id=f"new{cluster_id}.{index}")
        for index in range(leaves):
            builder.leave(f"c{cluster_id}/r{6 - index}", at=leave_time + 0.2 * index)
    row = builder.run_one()
    series = [(start, value) for start, value in row.series]
    return {
        "engine": engine,
        "series": series,
        "join_time": join_time,
        "leave_time": leave_time,
        "joins_completed": row.joins_completed,
        "reconfigs_applied": row.reconfigs_applied,
        "throughput_before": _window_mean(series, 1.0, join_time),
        # "After" means after the churn has settled: the last two seconds of
        # the run, once clients have failed over away from departed replicas.
        "throughput_after": _window_mean(series, duration - 2.0, duration),
    }


def _window_mean(series: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    values = [value for t, value in series if start <= t < end]
    return sum(values) / len(values) if values else 0.0


def run_e5_workflows(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    client_threads: int = 16,
    seed: int = 6,
    churn_period: float = 1.0,
    workers: int = 1,
) -> List[Row]:
    """E5.2: parallel reconfiguration workflow vs single workflow (Fig. 5b)."""
    duration = duration if duration is not None else default_duration(10.0)
    scenarios = [
        Scenario(f"e5/workflows/{variant}")
        .clusters(10, 8)
        .engine(engine)
        .preset("hamava" if variant == "parallel" else "single_workflow")
        .config(**FAST_TIMEOUTS)
        .threads(client_threads)
        .duration(duration, warmup=0.5)
        .seed(seed)
        .churn(start=duration * 0.3, period=churn_period, clusters=(0,), prefix="churn")
        .label(engine=engine, variant=variant)
        for variant in ("parallel", "single")
    ]
    return [
        {
            **row.labels,
            "throughput": row.throughput,
            "latency_write": row.latency_write,
            "reconfigs_applied": row.reconfigs_applied,
        }
        for row in _run_all(scenarios, workers)
    ]


# ---------------------------------------------------------------------- #
# E6: comparison with GeoBFT
# ---------------------------------------------------------------------- #
def run_e6(
    cluster_counts: Sequence[int] = (2, 3, 4, 6, 8, 12),
    total_nodes: Optional[int] = None,
    multi_region: bool = False,
    duration: Optional[float] = None,
    warmup: float = 0.5,
    client_threads: int = 24,
    seed: int = 7,
    workers: int = 1,
) -> List[Row]:
    """E6: AVA-HOTSTUFF vs GeoBFT across cluster counts (Fig. 6a/6b).

    The arms are Hamava over HotStuff and GeoBFT over BFT-SMaRt with
    pipelined local ordering (the ``geobft`` preset fixes the engine).
    """
    total_nodes = total_nodes if total_nodes is not None else default_nodes(48)
    duration = duration if duration is not None else default_duration(2.5)
    scenarios: List[Scenario] = []
    for clusters in cluster_counts:
        shapes = _sweep_shapes(total_nodes, clusters, multi_region)
        for preset in ("hamava", "geobft"):
            scenarios.append(
                Scenario(f"e6/{preset}/z{clusters}")
                .clusters(*shapes)
                .engine("hotstuff" if preset == "hamava" else "bftsmart")
                .preset(preset)
                .config(**FAST_TIMEOUTS)
                .threads(client_threads)
                .duration(duration, warmup=warmup)
                .seed(seed)
                .label(clusters=clusters)
            )
    results = _run_all(scenarios, workers)
    by_cell = {(row.preset, row.labels["clusters"]): row for row in results}
    rows: List[Row] = []
    for clusters in cluster_counts:
        ava = by_cell[("hamava", clusters)]
        geo = by_cell[("geobft", clusters)]
        rows.append(
            {
                "clusters": clusters,
                "regions": 3 if multi_region else 1,
                "ava_hotstuff_throughput": ava.throughput,
                "geobft_throughput": geo.throughput,
                "ava_hotstuff_latency": ava.latency_mean,
                "geobft_latency": geo.latency_mean,
                "ava_hotstuff_read_latency": ava.latency_read,
                "geobft_read_latency": geo.latency_read,
                "ava_hotstuff_messages": ava.network["messages_sent"],
                "geobft_messages": geo.network["messages_sent"],
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# E7: reconfiguration frequency
# ---------------------------------------------------------------------- #
def run_e7(
    engines: Sequence[str] = ("hotstuff", "bftsmart"),
    duration: Optional[float] = None,
    client_threads: int = 16,
    seed: int = 8,
    workers: int = 1,
) -> List[Row]:
    """E7: impact of reconfiguration frequency on performance (Fig. 7)."""
    duration = duration if duration is not None else default_duration(10.0)
    frequencies = {"none": None, "periodic": 2.0, "continuous": 0.5}
    scenarios: List[Scenario] = []
    for engine in engines:
        for label, period in frequencies.items():
            builder = (
                Scenario(f"e7/{engine}/{label}")
                .clusters(10, 10)
                .engine(engine)
                .config(**FAST_TIMEOUTS)
                .threads(client_threads)
                .duration(duration, warmup=duration * 0.35)
                .seed(seed)
                .label(engine=engine, reconfig_frequency=label)
            )
            if period is not None:
                builder.churn(
                    start=duration * 0.3, period=period, clusters=(0, 1), prefix=f"freq{engine}."
                )
            scenarios.append(builder)
    return [
        {
            **row.labels,
            "throughput": row.throughput,
            "latency_write": row.latency_write,
            "reconfigs_applied": row.reconfigs_applied,
        }
        for row in _run_all(scenarios, workers)
    ]


# ---------------------------------------------------------------------- #
# E8: network latency during reconfiguration
# ---------------------------------------------------------------------- #
def run_e8(
    engines: Sequence[str] = ("hotstuff", "bftsmart"),
    duration: Optional[float] = None,
    client_threads: int = 16,
    seed: int = 9,
    churn_period: float = 1.0,
    workers: int = 1,
) -> List[Row]:
    """E8: impact of inter-cluster latency during reconfiguration (Fig. 8)."""
    duration = duration if duration is not None else default_duration(8.0)
    remote_sites = {
        "us-east5": 52.0,
        "asia-northeast1": 91.0,
        "europe-west3": 142.0,
        "asia-south1": 219.0,
    }
    scenarios = [
        Scenario(f"e8/{engine}/{region}")
        .clusters((10, "us-west1"), (10, region))
        .engine(engine)
        .config(**FAST_TIMEOUTS)
        .rtt("us-west1", region, rtt)
        .threads(client_threads)
        .duration(duration, warmup=duration * 0.35)
        .seed(seed)
        .churn(
            start=duration * 0.3,
            period=churn_period,
            clusters=(0, 1),
            prefix=f"e8{engine}.{region}.",
        )
        .label(engine=engine, second_cluster_region=region, rtt_ms=rtt)
        for engine in engines
        for region, rtt in remote_sites.items()
    ]
    return [
        {
            **row.labels,
            "throughput": row.throughput,
            "latency_write": row.latency_write,
            "reconfigs_applied": row.reconfigs_applied,
        }
        for row in _run_all(scenarios, workers)
    ]


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
    duration: Optional[float] = None,
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
    duration = duration if duration is not None else default_duration(6.0)

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


def run_e9_all(duration: Optional[float] = None) -> List[Row]:
    """Run the whole E9 chaos pack; each row carries its pinned assertions."""
    return [run_e9(name, duration=duration) for name in E9_CASES]


__all__ = [
    "E9_CASES",
    "FAST_TIMEOUTS",
    "PAPER_REGIONS",
    "default_duration",
    "default_nodes",
    "full_scale",
    "heterogeneity_setups",
    "print_rows",
    "run_cluster_sweep",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5_join_leave",
    "run_e5_workflows",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e9_all",
    "run_table1",
    "run_table2",
]
