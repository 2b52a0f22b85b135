"""Fluent scenario builder: compose experiments in a few declarative lines.

The builder is the experiment-facing entry point of the harness::

    from repro import Scenario, ScenarioRunner

    scenario = (
        Scenario("e4")
        .clusters(4, 4)
        .engine("hotstuff")
        .crash("r0.1", at=2.0)
        .join(cluster=1, at=3.0)
        .duration(8.0, warmup=1.0)
        .seeds(1, 2, 3)
    )
    rows = ScenarioRunner(workers=2).run(scenario)

Every fluent call returns the builder, ``specs()`` compiles one
:class:`~repro.harness.scenario.ScenarioSpec` per requested seed, and a
:class:`~repro.harness.runner.ScenarioRunner` runs them.
Replica references accept both the canonical ``"c0/r1"`` ids and the
shorthand ``"r0.1"`` (cluster 0, replica 1).
"""

from __future__ import annotations

import copy
import re
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.workload.population import PopulationConfig, resolve_population_preset
from repro.harness.scenario import (
    DEFAULT_REGION,
    ByzantineEvent,
    ChurnLoop,
    ClockSkewEvent,
    CrashEvent,
    FlappingPartitionEvent,
    GrayReplicaEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    RegionOutageEvent,
    ScenarioEvent,
    ScenarioSpec,
    _check_keys,
)
from repro.net.adversity import CongestionConfig, CrossTrafficStream, RttTrace

_SHORTHAND = re.compile(r"^r(\d+)\.(\d+)$")

ClusterShape = Union[int, Tuple[int, str], List[object]]


def _override(target: object, what: str, fields: Dict[str, object]) -> None:
    """Set dataclass fields of a config object; any other name is an error."""
    for key, value in _check_keys(type(target), fields, what).items():
        setattr(target, key, value)


def normalize_replica_ref(ref: str) -> str:
    """Map the ``"r<cluster>.<index>"`` shorthand to a ``"c<cluster>/r<index>"`` id."""
    match = _SHORTHAND.match(ref)
    if match:
        return f"c{match.group(1)}/r{match.group(2)}"
    return ref


class Scenario:
    """Composable builder that compiles to :class:`ScenarioSpec` objects."""

    def __init__(self, name: str = "scenario") -> None:
        self._spec = ScenarioSpec(name=name, clusters=[])
        self._seeds: List[int] = []

    # ------------------------------------------------------------------ #
    # Topology
    # ------------------------------------------------------------------ #
    def clusters(self, *shapes: ClusterShape, region: Optional[str] = None) -> "Scenario":
        """Add clusters: bare sizes (``4, 4``) or ``(size, region)`` pairs."""
        for shape in shapes:
            if isinstance(shape, int):
                self._spec.clusters.append((shape, region or DEFAULT_REGION))
            else:
                size, shape_region = shape
                self._spec.clusters.append((int(size), str(shape_region)))
        return self

    def place(self, replica: str, region: str) -> "Scenario":
        """Pin one replica to a region (heterogeneous E3-style placement)."""
        self._spec.region_overrides[normalize_replica_ref(replica)] = region
        return self

    def place_many(self, overrides: Dict[str, str]) -> "Scenario":
        """Pin several replicas to regions at once."""
        for replica, region in overrides.items():
            self.place(replica, region)
        return self

    def rtt(self, region_a: str, region_b: str, rtt_ms: float) -> "Scenario":
        """Override the round-trip time between two regions (E8 sweeps)."""
        self._spec.rtt_overrides.append((region_a, region_b, float(rtt_ms)))
        return self

    # ------------------------------------------------------------------ #
    # System variant and configuration
    # ------------------------------------------------------------------ #
    def engine(self, engine: str) -> "Scenario":
        """Select the local ordering engine (``"hotstuff"``/``"bftsmart"``)."""
        self._spec.engine = engine
        return self

    def preset(self, preset: str) -> "Scenario":
        """Select a system preset (``"hamava"``, ``"geobft"``, ...)."""
        self._spec.preset = preset
        return self

    def config(self, **overrides: object) -> "Scenario":
        """Override :class:`~repro.core.config.HamavaConfig` fields."""
        self._spec.config_overrides.update(overrides)
        return self

    def timeouts(self, remote: float, instance: Optional[float] = None, brd: Optional[float] = None) -> "Scenario":
        """Shorthand for the three fault-detection timeouts at once."""
        overrides: Dict[str, object] = {"remote_timeout": remote}
        overrides["instance_timeout"] = instance if instance is not None else remote
        overrides["brd_timeout"] = brd if brd is not None else remote
        self._spec.config_overrides.update(overrides)
        return self

    # ------------------------------------------------------------------ #
    # Workload and clients
    # ------------------------------------------------------------------ #
    def workload(self, **fields: object) -> "Scenario":
        """Override YCSB workload parameters (``read_fraction``)."""
        _override(self._spec.workload, "workload", fields)
        return self

    def threads(self, client_threads: int) -> "Scenario":
        """Closed-loop threads per workload client."""
        self._spec.client_threads = int(client_threads)
        return self

    def open_loop(
        self,
        clients: Optional[int] = None,
        rate: Optional[float] = None,
        preset: Optional[str] = None,
        **fields: object,
    ) -> "Scenario":
        """Switch to the open-loop population workload model.

        Either start from a named population ``preset`` (``"steady"``) or
        from the current population (defaults if none), then override
        ``clients`` / ``rate`` (also accepted as ``fields``, which must name
        :class:`~repro.workload.population.PopulationConfig` fields).
        """
        config = (
            resolve_population_preset(preset)
            if preset is not None
            else (self._spec.population.copy() if self._spec.population is not None else PopulationConfig())
        )
        if clients is not None:
            config.clients = int(clients)
        if rate is not None:
            config.rate = float(rate)
        _override(config, "population", fields)
        self._spec.workload_model = "open"
        self._spec.population = config
        return self

    def read_leases(self, enabled: bool = True) -> "Scenario":
        """Enable leader read leases (lease-covered reads skip consensus)."""
        self._spec.config_overrides["read_leases"] = bool(enabled)
        return self

    # ------------------------------------------------------------------ #
    # Run shape
    # ------------------------------------------------------------------ #
    def duration(self, duration: float, warmup: Optional[float] = None) -> "Scenario":
        """Virtual seconds to simulate (and, optionally, the warmup cutoff)."""
        self._spec.duration = float(duration)
        if warmup is not None:
            self._spec.warmup = float(warmup)
        return self

    def seed(self, seed: int) -> "Scenario":
        """Single scenario seed (see :meth:`seeds` for multi-seed grids).

        The latest of :meth:`seed`/:meth:`seeds` wins, so calling this
        after :meth:`seeds` collapses the grid back to one seed.
        """
        self._spec.seed = int(seed)
        self._seeds = []
        return self

    def seeds(self, *seeds: int) -> "Scenario":
        """Run this scenario once per seed (compiles to one spec per seed)."""
        self._seeds = [int(seed) for seed in seeds]
        return self

    def shards(self, shards: int, parallel: bool = False) -> "Scenario":
        """Split the clusters across ``shards`` forked worker processes.

        Results are byte-identical for every shard count; sharding only
        changes how the work is executed.  The workers run only with
        ``parallel=True`` (use for large multi-cluster topologies where
        per-worker event work dominates the barrier cost); otherwise the
        run is one kernel in this process and the count is inert.
        """
        self._spec.shards = int(shards)
        self._spec.shard_parallel = bool(parallel)
        return self

    def timeseries(self, bucket: float = 1.0) -> "Scenario":
        """Collect a throughput time series with the given bucket width."""
        self._spec.timeseries_bucket = float(bucket)
        return self

    def stages(self) -> "Scenario":
        """Collect the per-stage latency breakdown (E2)."""
        self._spec.collect_stages = True
        return self

    def label(self, **labels: object) -> "Scenario":
        """Attach free-form tags that are copied into result rows."""
        self._spec.labels.update(labels)
        return self

    # ------------------------------------------------------------------ #
    # Schedule (one line per event kind; the event class is the definition)
    # ------------------------------------------------------------------ #
    def _add(self, event: ScenarioEvent) -> "Scenario":
        self._spec.schedule.append(event)
        return self

    def join(
        self,
        cluster: int,
        at: float,
        replica_id: Optional[str] = None,
        region: Optional[str] = None,
    ) -> "Scenario":
        """Schedule a join request against ``cluster`` at time ``at``."""
        return self._add(JoinEvent(cluster=cluster, at=at, replica_id=replica_id, region=region))

    def leave(self, replica: str, at: float) -> "Scenario":
        """Schedule an existing replica's leave request."""
        return self._add(LeaveEvent(replica=normalize_replica_ref(replica), at=at))

    def crash(self, replica: str, at: float) -> "Scenario":
        """Crash-stop one replica at time ``at``."""
        return self._add(CrashEvent(at=at, replica=normalize_replica_ref(replica)))

    def crash_leader(self, cluster: int, at: float) -> "Scenario":
        """Crash the leader of ``cluster`` (E4.2)."""
        return self._add(CrashEvent(at=at, cluster=cluster, scope="leader"))

    def crash_non_leaders(self, cluster: int, at: float, count: Optional[int] = None) -> "Scenario":
        """Crash up to ``f`` (or ``count``) non-leader replicas (E4.1)."""
        return self._add(CrashEvent(at=at, cluster=cluster, scope="non_leaders", count=count))

    def byzantine_leader(self, cluster: int, at: float) -> "Scenario":
        """Silence the leader's inter-cluster broadcast from time ``at`` (E4.3)."""
        return self._add(ByzantineEvent(cluster=cluster, at=at))

    def partition(self, cluster_a: int, cluster_b: int, at: float, duration: float) -> "Scenario":
        """Drop traffic between two clusters for ``duration`` seconds."""
        return self._add(
            PartitionEvent(cluster_a=cluster_a, cluster_b=cluster_b, at=at, duration=duration)
        )

    def gray(
        self, replica: str, at: float, factor: float = 8.0, duration: Optional[float] = None
    ) -> "Scenario":
        """Gray-degrade one replica: its CPU slows by ``factor`` at ``at``."""
        return self._add(
            GrayReplicaEvent(
                at=at, factor=factor, replica=normalize_replica_ref(replica), duration=duration
            )
        )

    def gray_leader(
        self, cluster: int, at: float, factor: float = 8.0, duration: Optional[float] = None
    ) -> "Scenario":
        """Gray-degrade whichever replica leads ``cluster`` at time ``at``."""
        return self._add(
            GrayReplicaEvent(at=at, factor=factor, cluster=cluster, scope="leader", duration=duration)
        )

    def clock_skew(
        self, replica: str, at: float, rate: float = 0.5, duration: Optional[float] = None
    ) -> "Scenario":
        """Skew one replica's timer clock (``rate < 1``: timeouts fire early)."""
        return self._add(
            ClockSkewEvent(
                at=at, rate=rate, replica=normalize_replica_ref(replica), duration=duration
            )
        )

    def flapping_partition(
        self,
        cluster_a: int,
        cluster_b: int,
        at: float,
        period: float,
        duty: float = 0.5,
        cycles: int = 5,
        direction: str = "both",
    ) -> "Scenario":
        """Duty-cycle the link between two clusters (optionally one-way)."""
        return self._add(
            FlappingPartitionEvent(
                cluster_a=cluster_a,
                cluster_b=cluster_b,
                at=at,
                period=period,
                duty=duty,
                cycles=cycles,
                direction=direction,
            )
        )

    def region_outage(self, region: str, at: float, duration: float) -> "Scenario":
        """Cut a whole region off the WAN for ``duration`` seconds."""
        return self._add(RegionOutageEvent(region=region, at=at, duration=duration))

    # ------------------------------------------------------------------ #
    # Network adversity (continuous, not scheduled)
    # ------------------------------------------------------------------ #
    def rtt_trace(self, trace: RttTrace) -> "Scenario":
        """Drive inter-region RTTs from a piecewise-linear trace."""
        trace.validate()
        self._spec.rtt_trace = trace
        return self

    def congestion(self, config: Optional[CongestionConfig] = None, **fields: object) -> "Scenario":
        """Enable load-dependent link latency (M/M/1-style congestion).

        Pass a full :class:`CongestionConfig` or override its fields
        (``streams``) on the current/default config; the model's constants
        live in :mod:`repro.net.adversity`.
        """
        if config is None:
            config = (
                copy.deepcopy(self._spec.congestion)
                if self._spec.congestion is not None
                else CongestionConfig()
            )
        _override(config, "congestion", fields)
        config.validate()
        self._spec.congestion = config
        return self

    def cross_traffic(
        self,
        src_region: str,
        dst_region: str,
        rate_bytes_per_sec: float,
        start: float = 0.0,
        stop: Optional[float] = None,
    ) -> "Scenario":
        """Inject a background traffic stream into the congestion model."""
        if self._spec.congestion is None:
            self._spec.congestion = CongestionConfig()
        self._spec.congestion.streams.append(
            CrossTrafficStream(
                src_region=src_region,
                dst_region=dst_region,
                rate_bytes_per_sec=float(rate_bytes_per_sec),
                start=start,
                stop=stop,
            )
        )
        return self

    def churn(
        self,
        start: float,
        period: float,
        stop: Optional[float] = None,
        clusters: Sequence[int] = (0,),
        prefix: str = "churn",
        region: Optional[str] = None,
    ) -> "Scenario":
        """Add a periodic join loop (E5.2/E7/E8-style churn)."""
        return self._add(
            ChurnLoop(
                start=start,
                period=period,
                stop=stop,
                clusters=clusters,
                prefix=prefix,
                region=region,
            )
        )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def spec(self) -> ScenarioSpec:
        """Compile to a single spec (first seed when several were given)."""
        spec = self._spec.with_seed(self._seeds[0] if self._seeds else self._spec.seed)
        if not spec.clusters:
            spec.clusters = [(4, DEFAULT_REGION)]
        spec.validate()
        return spec

    def specs(self) -> List[ScenarioSpec]:
        """Compile to one spec per requested seed."""
        base = self.spec()
        seeds = self._seeds if self._seeds else [base.seed]
        return [base.with_seed(seed) for seed in seeds]

    def build(self):
        """Compile and build the deployment for the first seed."""
        return self.spec().build()


__all__ = ["Scenario", "normalize_replica_ref"]
