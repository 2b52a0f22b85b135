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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.complexity import complexity_table
from repro.harness.builder import Scenario
from repro.harness.runner import ResultRow, ScenarioRunner
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


def run_e0(**kwargs) -> List[Row]:
    """E0: multi-cluster, single region (Fig. 3 left)."""
    kwargs.setdefault("multi_region", False)
    return run_cluster_sweep(**kwargs)


def run_e1(**kwargs) -> List[Row]:
    """E1: multi-cluster, three regions (Fig. 3 right)."""
    kwargs.setdefault("multi_region", True)
    return run_cluster_sweep(**kwargs)


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
    """E6: AVA-HOTSTUFF vs GeoBFT across cluster counts (Fig. 6a/6b)."""
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
def _e9_run(make_builder, parity_shards: Sequence[int] = (2,)) -> Tuple[ResultRow, bool]:
    """Run an E9 scenario serially and re-run sharded for byte parity.

    ``make_builder`` must return a *fresh* builder per call; the serial row
    and every sharded re-run must serialize identically (the PR-7 parity
    contract extended to adversity scenarios).
    """
    from repro.harness.runner import run_scenario

    row = run_scenario(make_builder().spec())
    parity = all(
        run_scenario(make_builder().shards(shards).spec()).to_json() == row.to_json()
        for shards in parity_shards
    )
    return row, parity


def _e9_row(experiment: str, assertions: Dict[str, bool], **extra: object) -> Row:
    return {
        "experiment": experiment,
        "passed": all(assertions.values()),
        "assertions": assertions,
        **extra,
    }


def run_e9_gray_leader(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
    factor: float = 400.0,
) -> Row:
    """E9.1: a gray (slow, not dead) leader is detected and replaced.

    The cluster-0 leader's CPU degrades by ``factor`` a quarter into the
    run.  It keeps answering — late — so only timeout-based detection can
    catch it; the pinned assertion is that leadership moves off the initial
    leader and the deployment keeps committing afterwards.
    """
    duration = duration if duration is not None else default_duration(6.0)
    fault_time = duration * 0.25

    def make_builder() -> Scenario:
        return (
            Scenario("e9/gray_leader")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine(engine)
            .timeouts(1.0)
            .config(retry_timeout=1.0)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
            .timeseries(bucket=1.0)
            .gray_leader(0, at=fault_time, factor=factor)
        )

    row, parity = _e9_run(make_builder)
    spec = make_builder().spec()
    deployment = spec.build()
    deployment.run(duration=spec.duration, warmup=spec.warmup)
    initial_leader = sorted(deployment.system_config.members(0))[0]
    new_leader = deployment.leader_of(0).process_id
    series = [(start, value) for start, value in (row.series or [])]
    tail = _window_mean(series, duration - 2.0, duration)
    assertions = {
        "leader_changed": new_leader != initial_leader,
        "progress_after_fault": tail > 0.0,
        "sharded_parity": parity,
    }
    return _e9_row(
        "gray_leader",
        assertions,
        engine=engine,
        fault_time=fault_time,
        initial_leader=initial_leader,
        new_leader=new_leader,
        throughput=row.throughput,
    )


def run_e9_clock_skew(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
    rate: float = 0.005,
) -> Row:
    """E9.2: fast local clocks cause *spurious* leader changes.

    Two followers of cluster 0 get clocks running ``1/rate`` times fast, so
    their complaint timers expire long before the healthy leader is actually
    late.  Pinned assertions: the skewed run records a leader change with no
    real fault present, and a skew-free control run under the same seed does
    not.

    The default ``rate`` turns the 1 s timeouts into 5 ms: a 4-replica LAN
    decision takes about 5 ms here, and a skewed timer has to expire before
    the healthy leader decides for a complaint about it to be raised (a
    20 ms timer, ``rate=0.02``, never does).
    """
    duration = duration if duration is not None else default_duration(6.0)
    fault_time = duration * 0.25

    def make_builder(skewed: bool = True) -> Scenario:
        builder = (
            Scenario("e9/clock_skew" if skewed else "e9/clock_skew_control")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine(engine)
            .timeouts(1.0)
            .config(retry_timeout=1.0)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
        )
        if skewed:
            builder.clock_skew("r0.1", at=fault_time, rate=rate)
            builder.clock_skew("r0.2", at=fault_time, rate=rate)
        return builder

    _, parity = _e9_run(make_builder)
    spec = make_builder().spec()
    deployment = spec.build()
    deployment.run(duration=spec.duration, warmup=spec.warmup)
    skew_changes = max(replica.last_leader_change for replica in deployment.cluster_replicas(0))
    control_spec = make_builder(skewed=False).spec()
    control = control_spec.build()
    control.run(duration=control_spec.duration, warmup=control_spec.warmup)
    control_changes = max(replica.last_leader_change for replica in control.cluster_replicas(0))
    assertions = {
        "spurious_leader_change": skew_changes > 0.0,
        "control_is_stable": control_changes == 0.0,
        "sharded_parity": parity,
    }
    return _e9_row(
        "clock_skew",
        assertions,
        engine=engine,
        rate=rate,
        skew_leader_change_at=skew_changes,
    )


def run_e9_flapping_partition(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
    period: float = 0.5,
    duty: float = 0.5,
    cycles: int = 3,
) -> Row:
    """E9.3: a flapping inter-cluster link drops traffic but heals cleanly.

    The cluster 0 <-> 1 link is duty-cycled starting a quarter into the run.
    Pinned assertions: drops actually happen, and goodput over the final two
    seconds (well after the last flap) recovers to at least half the
    pre-fault level.  Flapping keeps stalling rounds just as the previous
    timeout recovery completes, so detection timeouts must be shorter than
    the recovery runway — hence the aggressive 1-second timeouts here.
    """
    duration = duration if duration is not None else default_duration(6.0)
    fault_time = duration * 0.25

    def make_builder() -> Scenario:
        return (
            Scenario("e9/flapping_partition")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine(engine)
            .timeouts(1.0)
            .config(retry_timeout=1.0)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
            .timeseries(bucket=1.0)
            .flapping_partition(0, 1, at=fault_time, period=period, duty=duty, cycles=cycles)
        )

    row, parity = _e9_run(make_builder)
    series = [(start, value) for start, value in (row.series or [])]
    before = _window_mean(series, 0.0, fault_time)
    after = _window_mean(series, duration - 2.0, duration)
    dropped = int((row.network or {}).get("messages_dropped", 0))
    assertions = {
        "messages_dropped": dropped > 0,
        "goodput_recovered": after >= 0.5 * before,
        "sharded_parity": parity,
    }
    return _e9_row(
        "flapping_partition",
        assertions,
        engine=engine,
        dropped=dropped,
        goodput_before=before,
        goodput_after=after,
    )


def run_e9_region_outage(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
) -> Row:
    """E9.4: a whole region loses its WAN uplink, then heals.

    Three single-cluster regions; the third region goes dark for 15% of the
    run.  Pinned assertions: correlated drops occur, and goodput over the
    final two seconds recovers to at least half the pre-fault level.
    """
    duration = duration if duration is not None else default_duration(6.0)
    fault_time = duration * 0.25
    outage = duration * 0.15

    def make_builder() -> Scenario:
        return (
            Scenario("e9/region_outage")
            .clusters(*((4, region) for region in PAPER_REGIONS))
            .engine(engine)
            .timeouts(1.0)
            .config(retry_timeout=1.0)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
            .timeseries(bucket=1.0)
            .region_outage(PAPER_REGIONS[-1], at=fault_time, duration=outage)
        )

    row, parity = _e9_run(make_builder)
    series = [(start, value) for start, value in (row.series or [])]
    before = _window_mean(series, 0.0, fault_time)
    after = _window_mean(series, duration - 2.0, duration)
    dropped = int((row.network or {}).get("messages_dropped", 0))
    assertions = {
        "messages_dropped": dropped > 0,
        "goodput_recovered": after >= 0.5 * before,
        "sharded_parity": parity,
    }
    return _e9_row(
        "region_outage",
        assertions,
        engine=engine,
        dropped=dropped,
        goodput_before=before,
        goodput_after=after,
    )


def run_e9_congestion(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
    background_rate: float = 1.1e8,
) -> Row:
    """E9.5: background cross-traffic congests the WAN link.

    The us-west1 -> europe-west3 link carries an injected background stream
    near its modelled capacity for the middle half of the run.  Pinned
    assertions: the mean wire latency rises above an uncongested control run
    of the same seed, and the system keeps committing throughout.
    """
    duration = duration if duration is not None else default_duration(6.0)

    def make_builder(congested: bool = True) -> Scenario:
        builder = (
            Scenario("e9/congestion" if congested else "e9/congestion_control")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine(engine)
            .config(**FAST_TIMEOUTS)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
        )
        if congested:
            builder.congestion()
            builder.cross_traffic(
                "us-west1",
                "europe-west3",
                background_rate,
                start=duration * 0.25,
                stop=duration * 0.75,
            )
        return builder

    row, parity = _e9_run(make_builder)
    control_row, _ = _e9_run(lambda: make_builder(congested=False), parity_shards=())
    congested_ms = float((row.network or {}).get("link_latency_mean_ms", 0.0))
    control_ms = float((control_row.network or {}).get("link_latency_mean_ms", 0.0))
    assertions = {
        "latency_inflated": congested_ms > control_ms,
        "still_committing": row.operations > 0,
        "sharded_parity": parity,
    }
    return _e9_row(
        "congestion",
        assertions,
        engine=engine,
        link_latency_ms=congested_ms,
        control_latency_ms=control_ms,
        throughput=row.throughput,
    )


def run_e9_rtt_trace(
    engine: str = "hotstuff",
    duration: Optional[float] = None,
    seed: int = 9,
    client_threads: int = 4,
) -> Row:
    """E9.6: trace-driven RTTs (wander + spikes) with dynamic lookahead.

    A synthetic cloud-pair trace drives the us-west1 <-> europe-west3 RTT
    through wander and congestion spikes.  Pinned assertions: the trace
    actually changes the run (vs the static matrix), results stay
    byte-identical serial-vs-sharded even though the lookahead floor now
    moves between trace segments, and the system keeps committing.
    """
    from repro.net.adversity import RttTrace

    duration = duration if duration is not None else default_duration(6.0)
    trace = RttTrace.synthetic(
        pairs=[("us-west1", "europe-west3", 148.0)], duration=duration, seed=seed
    )

    def make_builder(traced: bool = True) -> Scenario:
        builder = (
            Scenario("e9/rtt_trace" if traced else "e9/rtt_trace_control")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .engine(engine)
            .config(**FAST_TIMEOUTS)
            .threads(client_threads)
            .duration(duration)
            .seed(seed)
        )
        if traced:
            builder.rtt_trace(trace.copy())
        return builder

    row, parity = _e9_run(make_builder, parity_shards=(2, 4))
    control_row, _ = _e9_run(lambda: make_builder(traced=False), parity_shards=())
    assertions = {
        "trace_changes_run": row.to_json() != control_row.to_json(),
        "still_committing": row.operations > 0,
        "sharded_parity": parity,
    }
    return _e9_row(
        "rtt_trace",
        assertions,
        engine=engine,
        throughput=row.throughput,
        control_throughput=control_row.throughput,
    )


def run_e9_all(duration: Optional[float] = None) -> List[Row]:
    """Run the whole E9 chaos pack; each row carries its pinned assertions."""
    return [
        run_e9_gray_leader(duration=duration),
        run_e9_clock_skew(duration=duration),
        run_e9_flapping_partition(duration=duration),
        run_e9_region_outage(duration=duration),
        run_e9_congestion(duration=duration),
        run_e9_rtt_trace(duration=duration),
    ]


__all__ = [
    "FAST_TIMEOUTS",
    "PAPER_REGIONS",
    "default_duration",
    "default_nodes",
    "full_scale",
    "heterogeneity_setups",
    "print_rows",
    "run_cluster_sweep",
    "run_e0",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5_join_leave",
    "run_e5_workflows",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9_all",
    "run_e9_clock_skew",
    "run_e9_congestion",
    "run_e9_flapping_partition",
    "run_e9_gray_leader",
    "run_e9_region_outage",
    "run_e9_rtt_trace",
    "run_table1",
    "run_table2",
]
