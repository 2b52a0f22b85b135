"""Declarative scenarios: one serializable spec per experimental data point.

The paper's evaluation is a grid of *scenarios* — cluster shapes × engines ×
fault/churn schedules × workloads.  :class:`ScenarioSpec` captures one cell
of that grid as plain data: the clusters, the protocol configuration, the
workload and latency models, and a unified ``schedule`` of typed events
(:class:`JoinEvent`, :class:`LeaveEvent`, :class:`CrashEvent`,
:class:`ByzantineEvent`, :class:`PartitionEvent`, :class:`GrayReplicaEvent`,
:class:`ClockSkewEvent`, :class:`FlappingPartitionEvent`,
:class:`RegionOutageEvent`, :class:`ChurnLoop`) that replaces the imperative
``add_joiner`` / ``schedule_leave`` / ``FaultInjector`` mutation calls.

A spec round-trips through JSON (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`), compiles to a runnable
:class:`~repro.harness.deployment.Deployment` (:meth:`ScenarioSpec.build`),
and executes to a typed result row (:meth:`ScenarioSpec.run`).  Baselines
plug in through named *presets* (``"hamava"``, ``"geobft"``,
``"single_workflow"``) that transform the protocol configuration and may
swap the replica class.

Most callers never instantiate a spec directly: the fluent
:class:`~repro.harness.builder.Scenario` builder compiles to specs, and the
:class:`~repro.harness.runner.ScenarioRunner` executes lists of them across
seeds, optionally in parallel.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.consensus.interface import ConsensusConfig
from repro.core.config import HamavaConfig
from repro.core.replica import HamavaReplica
from repro.errors import ConfigurationError
from repro.net.adversity import CongestionConfig, RttTrace
from repro.net.latency import LatencyParameters
from repro.net.network import NetworkConfig
from repro.workload.population import (
    PopulationConfig,
    population_from_dict,
    population_to_dict,
)
from repro.workload.ycsb import YcsbConfig

#: Region used when a scenario does not say otherwise.
DEFAULT_REGION = "us-west1"


# ---------------------------------------------------------------------- #
# Schedule events
# ---------------------------------------------------------------------- #
@dataclass
class JoinEvent:
    """A new replica requests to join ``cluster`` at virtual time ``at``."""

    kind: ClassVar[str] = "join"

    cluster: int
    at: float
    replica_id: Optional[str] = None
    region: Optional[str] = None


@dataclass
class LeaveEvent:
    """An existing replica requests to leave at virtual time ``at``."""

    kind: ClassVar[str] = "leave"

    replica: str
    at: float


@dataclass
class CrashEvent:
    """Crash-stop one replica, a cluster's leader, or its non-leaders.

    Attributes:
        at: Virtual time of the crash.
        replica: Replica id, required when ``scope == "replica"``.
        cluster: Cluster id, required for the ``"leader"`` and
            ``"non_leaders"`` scopes.
        scope: ``"replica"`` (default), ``"leader"`` (E4.2), or
            ``"non_leaders"`` (E4.1: up to ``f`` followers).
        count: Optional cap on how many non-leaders to crash.
    """

    kind: ClassVar[str] = "crash"

    at: float
    replica: Optional[str] = None
    cluster: Optional[int] = None
    scope: str = "replica"
    count: Optional[int] = None


@dataclass
class ByzantineEvent:
    """Turn a cluster's leader Byzantine at virtual time ``at``.

    The only modelled behaviour is the paper's E4.3 attack
    (``"silent_inter"``): the leader keeps ordering correctly inside its
    cluster but stops sending the inter-cluster broadcast.
    """

    kind: ClassVar[str] = "byzantine"

    cluster: int
    at: float
    behavior: str = "silent_inter"


@dataclass
class PartitionEvent:
    """Drop all traffic between two clusters for ``duration`` seconds."""

    kind: ClassVar[str] = "partition"

    cluster_a: int
    cluster_b: int
    at: float
    duration: float


@dataclass
class GrayReplicaEvent:
    """Gray failure: a replica keeps running but its CPU slows by ``factor``.

    The replica is never declared crashed — it answers, just late.  With
    ``scope == "leader"`` the target is resolved *live* at fire time (the
    cluster's current leader, which an earlier event may have changed).
    ``duration`` restores full speed afterwards; ``None`` degrades forever.
    """

    kind: ClassVar[str] = "gray"

    at: float
    factor: float = 8.0
    replica: Optional[str] = None
    cluster: Optional[int] = None
    scope: str = "replica"
    duration: Optional[float] = None


@dataclass
class ClockSkewEvent:
    """Skew one replica's timer clock by ``rate`` (1.0 is a true clock).

    ``rate < 1`` is a fast local clock — timeouts fire early, which is the
    classic cause of spurious leader complaints; ``rate > 1`` is a slow
    clock that reacts sluggishly to real failures.  Scoping and live
    resolution follow :class:`GrayReplicaEvent`.
    """

    kind: ClassVar[str] = "clock_skew"

    at: float
    rate: float = 0.5
    replica: Optional[str] = None
    cluster: Optional[int] = None
    scope: str = "replica"
    duration: Optional[float] = None


@dataclass
class FlappingPartitionEvent:
    """A duty-cycled, optionally asymmetric partition between two clusters.

    Starting at ``at``, the link is cut for ``duty * period`` seconds out
    of every ``period``, for ``cycles`` repetitions.  ``direction`` selects
    which way traffic is dropped: ``"both"`` (default), ``"a_to_b"``, or
    ``"b_to_a"`` (gray links are often asymmetric).  Membership is resolved
    live on every send, so replicas joining mid-flap are covered.
    """

    kind: ClassVar[str] = "flapping_partition"

    cluster_a: int
    cluster_b: int
    at: float
    period: float
    duty: float = 0.5
    cycles: int = 5
    direction: str = "both"


@dataclass
class RegionOutageEvent:
    """Correlated outage: a whole region drops off the WAN for ``duration``.

    Every message with exactly one endpoint placed in ``region`` is dropped
    (traffic *inside* the dark region still flows — the region lost its
    uplink, not its LAN), affecting all clusters there at once.
    """

    kind: ClassVar[str] = "region_outage"

    region: str
    at: float
    duration: float


@dataclass
class ChurnLoop:
    """Periodic churn: one join every ``period`` seconds (E5.2/E7/E8 style).

    Joins rotate round-robin over ``clusters`` and are named
    ``f"{prefix}{index}"``.  ``stop`` defaults to one second before the
    scenario's duration, matching the paper's churn windows.
    """

    kind: ClassVar[str] = "churn"

    start: float
    period: float
    stop: Optional[float] = None
    clusters: Tuple[int, ...] = (0,)
    prefix: str = "churn"
    region: Optional[str] = None


ScenarioEvent = Union[
    JoinEvent,
    LeaveEvent,
    CrashEvent,
    ByzantineEvent,
    PartitionEvent,
    GrayReplicaEvent,
    ClockSkewEvent,
    FlappingPartitionEvent,
    RegionOutageEvent,
    ChurnLoop,
]

EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        JoinEvent,
        LeaveEvent,
        CrashEvent,
        ByzantineEvent,
        PartitionEvent,
        GrayReplicaEvent,
        ClockSkewEvent,
        FlappingPartitionEvent,
        RegionOutageEvent,
        ChurnLoop,
    )
}


def event_to_dict(event: ScenarioEvent) -> Dict[str, object]:
    """Serialize one schedule event (the ``kind`` tag selects the type)."""
    payload: Dict[str, object] = {"kind": event.kind}
    data = asdict(event)
    if isinstance(event, ChurnLoop):
        data["clusters"] = list(event.clusters)
    payload.update(data)
    return payload


def event_from_dict(payload: Dict[str, object]) -> ScenarioEvent:
    """Deserialize one schedule event from its tagged dictionary."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in EVENT_TYPES:
        raise ConfigurationError(f"unknown schedule event kind {kind!r}")
    if kind == "churn" and "clusters" in data:
        data["clusters"] = tuple(data["clusters"])
    return EVENT_TYPES[kind](**data)


# ---------------------------------------------------------------------- #
# Presets (baseline systems plug in here)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Preset:
    """A named system variant: a config transform plus a replica class."""

    name: str
    transform: Callable[[HamavaConfig], HamavaConfig]
    replica_class: Type[HamavaReplica] = HamavaReplica


PRESETS: Dict[str, Preset] = {}


def register_preset(
    name: str,
    transform: Callable[[HamavaConfig], HamavaConfig],
    replica_class: Type[HamavaReplica] = HamavaReplica,
) -> None:
    """Register a scenario preset under ``name`` (case-insensitive)."""
    PRESETS[name.lower()] = Preset(name=name.lower(), transform=transform, replica_class=replica_class)


register_preset("hamava", lambda config: config)


def resolve_preset(name: str) -> Preset:
    """Look up a preset, importing the baselines to self-register if needed."""
    key = name.lower()
    if key not in PRESETS:
        # Baseline modules register their presets on import.
        importlib.import_module("repro.baselines")
    if key not in PRESETS:
        raise ConfigurationError(f"unknown scenario preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[key]


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise ConfigurationError(f"replica class path {path!r} must look like 'module:Class'")
    try:
        obj: object = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(
            f"cannot resolve replica class {path!r} (classes must be importable "
            f"by name to cross process boundaries): {exc}"
        ) from exc
    return obj  # type: ignore[return-value]


# ---------------------------------------------------------------------- #
# Configuration overrides
# ---------------------------------------------------------------------- #
def apply_config_overrides(config: HamavaConfig, overrides: Dict[str, object]) -> HamavaConfig:
    """Return a copy of ``config`` with flat overrides applied.

    Keys name :class:`HamavaConfig` fields; ``instance_timeout`` is routed
    to the nested consensus configuration.
    """
    config = replace(config, consensus=replace(config.consensus))
    for key, value in overrides.items():
        if key == "instance_timeout":
            config.consensus.instance_timeout = value
        elif key == "consensus":
            raise ConfigurationError("override consensus fields individually (e.g. instance_timeout)")
        elif hasattr(config, key):
            setattr(config, key, value)
        else:
            raise ConfigurationError(f"unknown config override {key!r}")
    return config


def _config_to_dict(config: HamavaConfig) -> Dict[str, object]:
    return asdict(config)


def _config_from_dict(payload: Dict[str, object]) -> HamavaConfig:
    data = dict(payload)
    consensus = ConsensusConfig(**data.pop("consensus", {}))
    return HamavaConfig(consensus=consensus, **data)


# ---------------------------------------------------------------------- #
# The scenario spec
# ---------------------------------------------------------------------- #
@dataclass
class ScenarioSpec:
    """A declarative description of one experimental data point.

    Attributes:
        name: Scenario label; carried into result rows.
        clusters: ``[(size, region), ...]`` — one entry per cluster.
        engine: Local ordering engine (presets may force a different one).
        preset: System variant: ``"hamava"``, ``"geobft"``,
            ``"single_workflow"`` (baselines register their own).
        seed: Scenario seed; same seed ⇒ same run, bit for bit.
        duration: Virtual seconds to simulate.
        warmup: Completions before this time are excluded from metrics.
        client_threads: Closed-loop threads per workload client.
        clients_per_cluster: Workload clients per cluster.
        workload: YCSB parameters.
        workload_model: ``"closed"`` (per-thread YCSB clients, the paper's
            evaluation setup) or ``"open"`` (one aggregate
            :class:`~repro.workload.population.ClientPopulation` per
            cluster, driven by an arrival rate or load shape).
        population: Open-loop population parameters; required context when
            ``workload_model == "open"`` (defaults applied when ``None``).
        latency: Latency-model constants.
        network: Network processing-cost constants.
        config: Optional base protocol configuration (defaults applied
            otherwise); ``engine``/preset/overrides are layered on top.
        config_overrides: Flat :class:`HamavaConfig` field overrides
            (``instance_timeout`` reaches the consensus sub-config).
        region_overrides: Per-replica region placement.
        rtt_overrides: ``[(region_a, region_b, rtt_ms), ...]`` overrides of
            the inter-region RTT matrix (the E8 sweep).
        churn_client_region: Region churn clients are registered in;
            defaults to the first cluster's region.
        schedule: Unified list of timed events (joins, leaves, crashes,
            Byzantine switches, partitions, churn loops).
        timeseries_bucket: When set, the result row carries a throughput
            time series with this bucket width (failure/churn figures).
        collect_stages: When ``True`` the result row carries the E2
            per-stage latency breakdown.
        labels: Free-form tags copied into the result row (e.g. the sweep
            coordinates a figure plots against).
        replica_class: Replica implementation: a class, a ``"module:Class"``
            path, or ``None`` to use the preset's class.
        shards: Simulation shards clusters are packed onto (clamped to the
            cluster count).  Results are byte-identical for every value;
            more shards only changes wall-clock behaviour.
        shard_parallel: Run shards in worker *processes* (true parallelism)
            instead of interleaving them in-process.  Requires
            ``shards > 1``; results remain byte-identical.
        strict_streams: Enable the RNG stream-ownership audit (draws from a
            foreign shard's streams raise ``StreamOwnershipError``).
        rtt_trace: Optional trace-driven RTT schedule (piecewise-linear
            ``(time, rtt)`` segments per region pair); traced pairs are
            re-sampled every send instead of using the static matrix.
        congestion: Optional load-dependent link-latency model with
            injectable background cross-traffic streams.
    """

    name: str = "scenario"
    clusters: List[Tuple[int, str]] = field(default_factory=lambda: [(4, DEFAULT_REGION)])
    engine: str = "hotstuff"
    preset: str = "hamava"
    seed: int = 1
    duration: float = 5.0
    warmup: float = 0.0
    client_threads: int = 16
    clients_per_cluster: int = 1
    workload: YcsbConfig = field(default_factory=YcsbConfig)
    workload_model: str = "closed"
    population: Optional[PopulationConfig] = None
    latency: LatencyParameters = field(default_factory=LatencyParameters)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    config: Optional[HamavaConfig] = None
    config_overrides: Dict[str, object] = field(default_factory=dict)
    region_overrides: Dict[str, str] = field(default_factory=dict)
    rtt_overrides: List[Tuple[str, str, float]] = field(default_factory=list)
    churn_client_region: Optional[str] = None
    schedule: List[ScenarioEvent] = field(default_factory=list)
    timeseries_bucket: Optional[float] = None
    collect_stages: bool = False
    labels: Dict[str, object] = field(default_factory=dict)
    replica_class: Union[None, str, type] = None
    shards: int = 1
    shard_parallel: bool = False
    strict_streams: bool = False
    rtt_trace: Optional[RttTrace] = None
    congestion: Optional[CongestionConfig] = None

    # ------------------------------------------------------------------ #
    # Derivations
    # ------------------------------------------------------------------ #
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec running under a different seed."""
        return replace(
            self,
            seed=seed,
            clusters=[tuple(c) for c in self.clusters],
            workload=replace(self.workload),
            population=None if self.population is None else self.population.copy(),
            latency=replace(self.latency),
            network=replace(self.network),
            config=None if self.config is None else replace(self.config, consensus=replace(self.config.consensus)),
            config_overrides=dict(self.config_overrides),
            region_overrides=dict(self.region_overrides),
            rtt_overrides=[tuple(r) for r in self.rtt_overrides],
            schedule=list(self.schedule),
            labels=dict(self.labels),
            rtt_trace=None if self.rtt_trace is None else self.rtt_trace.copy(),
            congestion=None if self.congestion is None else self.congestion.copy(),
        )

    def compiled_config(self) -> HamavaConfig:
        """The effective protocol configuration: base → engine → preset → overrides."""
        config = self.config if self.config is not None else HamavaConfig()
        config = config.with_engine(self.engine)
        config = resolve_preset(self.preset).transform(config)
        return apply_config_overrides(config, self.config_overrides)

    def compiled_replica_class(self) -> type:
        """The effective replica implementation for this scenario."""
        if self.replica_class is None:
            return resolve_preset(self.preset).replica_class
        if isinstance(self.replica_class, str):
            return _resolve_class(self.replica_class)
        return self.replica_class

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an unusable spec."""
        if not self.clusters:
            raise ConfigurationError(f"scenario {self.name!r} has no clusters")
        if self.workload_model not in ("closed", "open"):
            raise ConfigurationError(
                f"scenario {self.name!r}: workload_model must be 'closed' or "
                f"'open', not {self.workload_model!r}"
            )
        if self.population is not None:
            self.population.validate()
        if self.shards < 1:
            raise ConfigurationError(f"scenario {self.name!r}: shards must be >= 1, not {self.shards}")
        if self.rtt_trace is not None:
            self.rtt_trace.validate()
        if self.congestion is not None:
            self.congestion.validate()
        cluster_count = len(self.clusters)
        for event in self.schedule:
            clusters: Sequence[int] = ()
            if isinstance(event, (JoinEvent, ByzantineEvent)):
                clusters = (event.cluster,)
            elif isinstance(event, (GrayReplicaEvent, ClockSkewEvent)):
                if event.scope == "replica":
                    if not event.replica:
                        raise ConfigurationError(
                            f"{type(event).__name__} with scope='replica' needs a replica id"
                        )
                elif event.scope == "leader":
                    if event.cluster is None:
                        raise ConfigurationError(f"{type(event).__name__} scope='leader' needs a cluster")
                    clusters = (event.cluster,)
                else:
                    raise ConfigurationError(f"unknown {type(event).__name__} scope {event.scope!r}")
                if isinstance(event, GrayReplicaEvent) and event.factor <= 0:
                    raise ConfigurationError("GrayReplicaEvent factor must be positive")
                if isinstance(event, ClockSkewEvent) and event.rate <= 0:
                    raise ConfigurationError("ClockSkewEvent rate must be positive")
                if event.duration is not None and event.duration <= 0:
                    raise ConfigurationError(
                        f"{type(event).__name__} duration must be positive (or None)"
                    )
            elif isinstance(event, FlappingPartitionEvent):
                clusters = (event.cluster_a, event.cluster_b)
                if event.period <= 0:
                    raise ConfigurationError("FlappingPartitionEvent period must be positive")
                if not 0.0 < event.duty <= 1.0:
                    raise ConfigurationError("FlappingPartitionEvent duty must be in (0, 1]")
                if event.cycles < 1:
                    raise ConfigurationError("FlappingPartitionEvent needs at least one cycle")
                if event.direction not in ("both", "a_to_b", "b_to_a"):
                    raise ConfigurationError(
                        f"unknown FlappingPartitionEvent direction {event.direction!r}"
                    )
            elif isinstance(event, RegionOutageEvent):
                if event.duration <= 0:
                    raise ConfigurationError("RegionOutageEvent duration must be positive")
            elif isinstance(event, CrashEvent):
                if event.scope == "replica":
                    if not event.replica:
                        raise ConfigurationError("CrashEvent with scope='replica' needs a replica id")
                elif event.scope in ("leader", "non_leaders"):
                    if event.cluster is None:
                        raise ConfigurationError(f"CrashEvent scope={event.scope!r} needs a cluster")
                    clusters = (event.cluster,)
                else:
                    raise ConfigurationError(f"unknown CrashEvent scope {event.scope!r}")
            elif isinstance(event, PartitionEvent):
                clusters = (event.cluster_a, event.cluster_b)
            elif isinstance(event, ChurnLoop):
                clusters = event.clusters
                if event.period <= 0:
                    raise ConfigurationError("ChurnLoop period must be positive")
                if not event.clusters:
                    raise ConfigurationError("ChurnLoop needs at least one target cluster")
            for cluster_id in clusters:
                if not 0 <= cluster_id < cluster_count:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: event {event!r} targets cluster "
                        f"{cluster_id}, but only {cluster_count} clusters exist"
                    )

    # ------------------------------------------------------------------ #
    # Compilation and execution
    # ------------------------------------------------------------------ #
    def build(self, local_shard: Optional[int] = None):
        """Compile this spec into a runnable :class:`Deployment`.

        ``local_shard`` restricts construction to one shard's processes
        (multiprocess shard workers rebuild the same spec per worker).
        """
        from repro.harness.deployment import Deployment, DeploymentSpec

        self.validate()
        deployment_spec = DeploymentSpec(
            clusters=[tuple(c) for c in self.clusters],
            config=self.compiled_config(),
            seed=self.seed,
            client_threads=self.client_threads,
            workload=replace(self.workload),
            latency=replace(self.latency),
            network=replace(self.network),
            clients_per_cluster=self.clients_per_cluster,
            workload_model=self.workload_model,
            population=None if self.population is None else self.population.copy(),
            replica_class=self.compiled_replica_class(),
            region_overrides=dict(self.region_overrides),
            reconfig_client_region=self.churn_client_region,
            shards=self.shards,
            strict_streams=self.strict_streams,
            rtt_trace=None if self.rtt_trace is None else self.rtt_trace.copy(),
            congestion=None if self.congestion is None else self.congestion.copy(),
        )
        deployment = Deployment(deployment_spec, local_shard=local_shard)
        for region_a, region_b, rtt_ms in self.rtt_overrides:
            deployment.latency_model.set_rtt(region_a, region_b, rtt_ms)
        apply_schedule(deployment, self)
        return deployment

    def run(self):
        """Build and execute this scenario, returning a typed result row."""
        from repro.harness.runner import run_scenario

        return run_scenario(self)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description of this spec."""
        replica_class: Optional[str]
        if self.replica_class is None:
            replica_class = None
        elif isinstance(self.replica_class, str):
            replica_class = self.replica_class
        else:
            replica_class = _class_path(self.replica_class)
        return {
            "name": self.name,
            "clusters": [[size, region] for size, region in self.clusters],
            "engine": self.engine,
            "preset": self.preset,
            "seed": self.seed,
            "duration": self.duration,
            "warmup": self.warmup,
            "client_threads": self.client_threads,
            "clients_per_cluster": self.clients_per_cluster,
            "workload": asdict(self.workload),
            "workload_model": self.workload_model,
            "population": None if self.population is None else population_to_dict(self.population),
            "latency": asdict(self.latency),
            "network": asdict(self.network),
            "config": None if self.config is None else _config_to_dict(self.config),
            "config_overrides": dict(self.config_overrides),
            "region_overrides": dict(self.region_overrides),
            "rtt_overrides": [[a, b, rtt] for a, b, rtt in self.rtt_overrides],
            "churn_client_region": self.churn_client_region,
            "schedule": [event_to_dict(event) for event in self.schedule],
            "timeseries_bucket": self.timeseries_bucket,
            "collect_stages": self.collect_stages,
            "labels": dict(self.labels),
            "replica_class": replica_class,
            "shards": self.shards,
            "shard_parallel": self.shard_parallel,
            "strict_streams": self.strict_streams,
            "rtt_trace": None if self.rtt_trace is None else self.rtt_trace.to_dict(),
            "congestion": None if self.congestion is None else self.congestion.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        data = dict(payload)
        data["clusters"] = [(int(size), str(region)) for size, region in data.get("clusters", [])]
        data["workload"] = YcsbConfig(**data.get("workload", {}))
        population = data.get("population")
        data["population"] = None if population is None else population_from_dict(population)
        data["latency"] = LatencyParameters(**data.get("latency", {}))
        data["network"] = NetworkConfig(**data.get("network", {}))
        config = data.get("config")
        data["config"] = None if config is None else _config_from_dict(config)
        data["rtt_overrides"] = [(a, b, float(rtt)) for a, b, rtt in data.get("rtt_overrides", [])]
        data["schedule"] = [event_from_dict(event) for event in data.get("schedule", [])]
        rtt_trace = data.get("rtt_trace")
        data["rtt_trace"] = None if rtt_trace is None else RttTrace.from_dict(rtt_trace)
        congestion = data.get("congestion")
        data["congestion"] = None if congestion is None else CongestionConfig.from_dict(congestion)
        return cls(**data)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------- #
# Schedule compilation
# ---------------------------------------------------------------------- #
def apply_schedule(deployment, spec: ScenarioSpec) -> None:
    """Install every schedule event of ``spec`` on a built deployment.

    Events are applied in list order, which keeps default joiner naming and
    RNG consumption identical to the equivalent imperative call sequence.
    """
    from repro.harness.faults import FaultInjector

    injector = FaultInjector(deployment)
    for event in spec.schedule:
        if isinstance(event, JoinEvent):
            deployment.add_joiner(
                event.cluster, at_time=event.at, replica_id=event.replica_id, region=event.region
            )
        elif isinstance(event, LeaveEvent):
            deployment.schedule_leave(event.replica, at_time=event.at)
        elif isinstance(event, CrashEvent):
            if event.scope == "replica":
                injector.crash_replica(event.replica, at_time=event.at)
            elif event.scope == "leader":
                injector.crash_leader(event.cluster, at_time=event.at)
            else:
                injector.crash_non_leaders(event.cluster, at_time=event.at, count=event.count)
        elif isinstance(event, ByzantineEvent):
            if event.behavior != "silent_inter":
                raise ConfigurationError(f"unknown Byzantine behavior {event.behavior!r}")
            injector.silence_leader_inter_broadcast(event.cluster, at_time=event.at)
        elif isinstance(event, PartitionEvent):
            injector.partition_clusters(
                event.cluster_a, event.cluster_b, at_time=event.at, duration=event.duration
            )
        elif isinstance(event, GrayReplicaEvent):
            if event.scope == "leader":
                injector.degrade_leader(
                    event.cluster, at_time=event.at, factor=event.factor, duration=event.duration
                )
            else:
                injector.degrade_replica(
                    event.replica, at_time=event.at, factor=event.factor, duration=event.duration
                )
        elif isinstance(event, ClockSkewEvent):
            if event.scope == "leader":
                injector.skew_leader_clock(
                    event.cluster, at_time=event.at, rate=event.rate, duration=event.duration
                )
            else:
                injector.skew_clock(
                    event.replica, at_time=event.at, rate=event.rate, duration=event.duration
                )
        elif isinstance(event, FlappingPartitionEvent):
            injector.flapping_partition(
                event.cluster_a,
                event.cluster_b,
                at_time=event.at,
                period=event.period,
                duty=event.duty,
                cycles=event.cycles,
                direction=event.direction,
            )
        elif isinstance(event, RegionOutageEvent):
            injector.region_outage(event.region, at_time=event.at, duration=event.duration)
        elif isinstance(event, ChurnLoop):
            stop = event.stop if event.stop is not None else max(spec.duration - 1.0, event.start)
            at = event.start
            index = 0
            while at < stop:
                cluster = event.clusters[index % len(event.clusters)]
                deployment.add_joiner(
                    cluster,
                    at_time=at,
                    replica_id=f"{event.prefix}{index}",
                    region=event.region,
                )
                index += 1
                at += event.period
        else:  # pragma: no cover - the Union above is exhaustive
            raise ConfigurationError(f"unknown schedule event {event!r}")


__all__ = [
    "ByzantineEvent",
    "ChurnLoop",
    "ClockSkewEvent",
    "CrashEvent",
    "DEFAULT_REGION",
    "EVENT_TYPES",
    "FlappingPartitionEvent",
    "GrayReplicaEvent",
    "JoinEvent",
    "LeaveEvent",
    "PartitionEvent",
    "RegionOutageEvent",
    "Preset",
    "ScenarioEvent",
    "ScenarioSpec",
    "apply_config_overrides",
    "apply_schedule",
    "event_from_dict",
    "event_to_dict",
    "register_preset",
    "resolve_preset",
]
