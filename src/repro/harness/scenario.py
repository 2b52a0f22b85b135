"""Declarative scenarios: one serializable spec per experimental data point.

The paper's evaluation is a grid of *scenarios* — cluster shapes × engines ×
fault/churn schedules × workloads.  :class:`ScenarioSpec` captures one cell
of that grid as plain data: the clusters, the protocol configuration, the
workload, and a ``schedule`` of typed events.  It is the *only* description
of an experiment: a :class:`~repro.harness.deployment.Deployment` reads it
directly.

An event class is the one place a fault (or churn step) is defined.  Each
subclass of :class:`ScenarioEvent` is a dataclass of plain JSON values that
knows how to check itself (:meth:`~ScenarioEvent.validate`: raise on values
it cannot schedule, return the clusters it names) and how to reach the
simulation (:meth:`~ScenarioEvent.install`, through the three shapes of
:class:`~repro.harness.faults.FaultInjector`); declaring its ``kind``
registers it for JSON.  Adding a kind is that class plus a one-line method
on the fluent builder.

A spec round-trips through JSON (:meth:`ScenarioSpec.to_dict` /
:meth:`ScenarioSpec.from_dict`), compiles to a runnable deployment
(:meth:`ScenarioSpec.build`), and executes to a typed result row
(:meth:`ScenarioSpec.run`).  Baselines plug in through named *presets*
(``"hamava"``, ``"geobft"``, ``"single_workflow"``) that transform the
protocol configuration.  The model constants (batch size, message costs,
latency and congestion constants, key space) are not spec fields: they are
constants of the modules that read them.

Most callers never instantiate a spec directly: the fluent
:class:`~repro.harness.builder.Scenario` builder compiles to specs, and the
:class:`~repro.harness.runner.ScenarioRunner` executes lists of them across
seeds, optionally in parallel.
"""

from __future__ import annotations

import copy
import importlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, ClassVar, Dict, List, Optional, Sequence, Tuple

from repro.core.config import HamavaConfig, failure_threshold
from repro.errors import ConfigurationError
from repro.harness.deployment import Deployment
from repro.harness.faults import FaultInjector
from repro.net.adversity import CongestionConfig, CrossTrafficStream, RttTrace
from repro.net.latency import canonical_region
from repro.workload.population import PopulationConfig
from repro.workload.ycsb import YcsbConfig

#: Region used when a scenario does not say otherwise.
DEFAULT_REGION = "us-west1"


def _check_keys(cls: type, data: Dict[str, object], what: str) -> Dict[str, object]:
    """Return ``data``; raise a field-naming error for a key ``cls`` does not have."""
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigurationError(f"{what}: unknown key {unknown[0]!r}; known keys: {', '.join(known)}")
    return data


def _construct(cls: type, data: Dict[str, object], what: str):
    """``cls(**data)``, with a field-naming error for keys ``cls`` does not have."""
    return cls(**_check_keys(cls, data, what))


# ---------------------------------------------------------------------- #
# Schedule events
# ---------------------------------------------------------------------- #
#: ``kind`` tag -> event class; filled as the classes below are defined.
EVENT_TYPES: Dict[str, type] = {}


class ScenarioEvent:
    """Base of every schedule event: the class is the event's whole story."""

    kind: ClassVar[str]
    #: Whether the event's effect reads live replicas of more than one
    #: cluster when it acts, which no single forked worker can see.
    reads_all_clusters: ClassVar[bool] = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "kind" in cls.__dict__:
            EVENT_TYPES[cls.kind] = cls

    def validate(self) -> Sequence[int]:
        """Raise on values :meth:`install` cannot schedule; return the cluster ids named."""
        self._require(self.at >= 0, "at", "must be >= 0")
        return ()

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        """Schedule this event on a freshly built deployment."""
        raise NotImplementedError

    def _require(self, ok: bool, field_name: str, problem: str) -> None:
        if not ok:
            raise ConfigurationError(
                f"{type(self).__name__}.{field_name} {problem}, not {getattr(self, field_name)!r}"
            )


class _ScopedEvent(ScenarioEvent):
    """A fault aimed at one ``replica`` or, by ``scope``, at part of a ``cluster``."""

    def _scoped_clusters(self, *cluster_scopes: str) -> Sequence[int]:
        """Check the ``replica`` / ``cluster`` / ``scope`` triple; return the cluster it names."""
        if self.scope == "replica":
            self._require(bool(self.replica), "replica", "is required with scope='replica'")
            return ()
        self._require(
            self.scope in cluster_scopes, "scope", f"must be 'replica' or one of {cluster_scopes}"
        )
        self._require(self.cluster is not None, "cluster", f"is required with scope={self.scope!r}")
        return (self.cluster,)


def _leader_only(members: List[str], leader: str) -> List[str]:
    return [leader]


@dataclass
class JoinEvent(ScenarioEvent):
    """A new replica requests to join ``cluster`` at virtual time ``at``."""

    kind: ClassVar[str] = "join"

    cluster: int
    at: float
    replica_id: Optional[str] = None
    region: Optional[str] = None

    def validate(self) -> Sequence[int]:
        super().validate()
        return (self.cluster,)

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        injector.deployment.add_joiner(
            self.cluster, at_time=self.at, replica_id=self.replica_id, region=self.region
        )


@dataclass
class LeaveEvent(ScenarioEvent):
    """An existing replica requests to leave at virtual time ``at``."""

    kind: ClassVar[str] = "leave"

    replica: str
    at: float

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        injector.deployment.schedule_leave(self.replica, at_time=self.at)


@dataclass
class CrashEvent(_ScopedEvent):
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

    def validate(self) -> Sequence[int]:
        super().validate()
        return self._scoped_clusters("leader", "non_leaders")

    def _followers(self, members: List[str], leader: str) -> List[str]:
        faults = failure_threshold(len(members))
        count = faults if self.count is None else min(self.count, faults)
        return [m for m in members if m != leader][-count:] if count else []

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        def crash(replica, simulator) -> None:
            replica.crash()

        if self.scope == "replica":
            injector.on_replica(self.replica, self.at, f"fault:crash:{self.replica}", crash)
        elif self.scope == "leader":
            label = f"fault:crash-leader:c{self.cluster}"
            injector.on_cluster(self.cluster, self.at, label, _leader_only, crash)
        else:
            label = f"fault:crash-followers:c{self.cluster}"
            injector.on_cluster(self.cluster, self.at, label, self._followers, crash)


@dataclass
class ByzantineEvent(ScenarioEvent):
    """Turn whichever replica leads ``cluster`` at ``at`` Byzantine.

    The only modelled behaviour is the paper's E4.3 attack
    (``"silent_inter"``): the leader keeps ordering correctly inside its
    cluster but stops sending the inter-cluster broadcast, so only remote
    clusters can detect it — the scenario the heterogeneous remote leader
    change exists for.
    """

    kind: ClassVar[str] = "byzantine"

    cluster: int
    at: float
    behavior: str = "silent_inter"

    def validate(self) -> Sequence[int]:
        super().validate()
        self._require(self.behavior == "silent_inter", "behavior", "must be 'silent_inter'")
        return (self.cluster,)

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        def silence(replica, simulator) -> None:
            replica.byzantine.silent_inter_after = self.at

        label = f"fault:silent-inter:c{self.cluster}"
        injector.on_cluster(self.cluster, self.at, label, _leader_only, silence)


@dataclass
class PartitionEvent(ScenarioEvent):
    """Drop all traffic between two clusters for ``duration`` seconds."""

    kind: ClassVar[str] = "partition"
    reads_all_clusters: ClassVar[bool] = True  # its cluster_cut rule

    cluster_a: int
    cluster_b: int
    at: float
    duration: float

    def validate(self) -> Sequence[int]:
        super().validate()
        self._require(self.duration > 0, "duration", "must be positive")
        self._require(self.cluster_a != self.cluster_b, "cluster_b", "must differ from cluster_a")
        return (self.cluster_a, self.cluster_b)

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        rule = injector.cluster_cut(self.cluster_a, self.cluster_b)
        injector.drop_window(rule, self.at, self.duration, "fault:partition")


class _KnobEvent(_ScopedEvent):
    """A fault that turns one replica knob to a value and, optionally, back.

    With ``scope == "leader"`` the target is resolved *live* at fire time
    (the cluster's current leader, which an earlier event may have changed).
    ``duration`` restores the true value (1.0) afterwards; ``None`` never does.
    """

    setter: ClassVar[str]  #: replica method that takes the new value
    value_field: ClassVar[str]  #: dataclass field holding it
    stem: ClassVar[str]  #: kernel label stem

    def validate(self) -> Sequence[int]:
        super().validate()
        self._require(getattr(self, self.value_field) > 0, self.value_field, "must be positive")
        self._require(
            self.duration is None or self.duration > 0, "duration", "must be positive (or None)"
        )
        return self._scoped_clusters("leader")

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        value, duration = getattr(self, self.value_field), self.duration

        def turn(replica, simulator) -> None:
            knob = getattr(replica, self.setter)
            knob(value)
            if duration is not None:
                simulator.schedule(duration, lambda: knob(1.0), label="fault:heal")

        if self.scope == "leader":
            label = f"fault:{self.stem}-leader:c{self.cluster}"
            injector.on_cluster(self.cluster, self.at, label, _leader_only, turn)
        else:
            injector.on_replica(self.replica, self.at, f"fault:{self.stem}:{self.replica}", turn)


@dataclass
class GrayReplicaEvent(_KnobEvent):
    """Gray failure: a replica keeps running but its CPU slows by ``factor``.

    The replica is never declared crashed — it answers, just late.
    """

    kind: ClassVar[str] = "gray"
    setter: ClassVar[str] = "set_cpu_factor"
    value_field: ClassVar[str] = "factor"
    stem: ClassVar[str] = "gray"

    at: float
    factor: float = 8.0
    replica: Optional[str] = None
    cluster: Optional[int] = None
    scope: str = "replica"
    duration: Optional[float] = None


@dataclass
class ClockSkewEvent(_KnobEvent):
    """Skew one replica's timer clock by ``rate`` (1.0 is a true clock).

    ``rate < 1`` is a fast local clock — timeouts fire early, which is the
    classic cause of spurious leader complaints; ``rate > 1`` is a slow
    clock that reacts sluggishly to real failures.
    """

    kind: ClassVar[str] = "clock_skew"
    setter: ClassVar[str] = "set_timer_rate"
    value_field: ClassVar[str] = "rate"
    stem: ClassVar[str] = "skew"

    at: float
    rate: float = 0.5
    replica: Optional[str] = None
    cluster: Optional[int] = None
    scope: str = "replica"
    duration: Optional[float] = None


@dataclass
class FlappingPartitionEvent(ScenarioEvent):
    """A duty-cycled, optionally asymmetric partition between two clusters.

    Starting at ``at``, the link is cut for ``duty * period`` seconds out
    of every ``period``, for ``cycles`` repetitions.  ``direction`` selects
    which way traffic is dropped: ``"both"`` (default), ``"a_to_b"``, or
    ``"b_to_a"`` (gray links are often asymmetric).  Membership is resolved
    live on every send, so replicas joining mid-flap are covered.
    """

    kind: ClassVar[str] = "flapping_partition"
    reads_all_clusters: ClassVar[bool] = True  # its cluster_cut rule

    cluster_a: int
    cluster_b: int
    at: float
    period: float
    duty: float = 0.5
    cycles: int = 5
    direction: str = "both"

    def validate(self) -> Sequence[int]:
        super().validate()
        self._require(self.period > 0, "period", "must be positive")
        self._require(0.0 < self.duty <= 1.0, "duty", "must be in (0, 1]")
        self._require(self.cycles >= 1, "cycles", "must be at least 1")
        self._require(
            self.direction in ("both", "a_to_b", "b_to_a"),
            "direction",
            "must be 'both', 'a_to_b' or 'b_to_a'",
        )
        self._require(self.cluster_a != self.cluster_b, "cluster_b", "must differ from cluster_a")
        return (self.cluster_a, self.cluster_b)

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        rule = injector.cluster_cut(self.cluster_a, self.cluster_b, self.direction)
        cut = self.duty * self.period
        injector.drop_window(rule, self.at, cut, "fault:flap", self.cycles, self.period)


@dataclass
class RegionOutageEvent(ScenarioEvent):
    """Correlated outage: a whole region drops off the WAN for ``duration``.

    Every message with exactly one endpoint placed in ``region`` is dropped
    (traffic *inside* the dark region still flows — the region lost its
    uplink, not its LAN).  Placement-based, so it correlates across all
    clusters in the region at once.
    """

    kind: ClassVar[str] = "region_outage"

    region: str
    at: float
    duration: float

    def validate(self) -> Sequence[int]:
        super().validate()
        self._require(self.duration > 0, "duration", "must be positive")
        return ()

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        region_of = injector.deployment.latency_model.region_of
        dark = canonical_region(self.region)

        def rule(sender, destination, payload) -> bool:
            return (region_of(sender) == dark) != (region_of(destination) == dark)

        injector.drop_window(rule, self.at, self.duration, "fault:region-outage")


@dataclass
class ChurnLoop(ScenarioEvent):
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

    def __post_init__(self) -> None:
        self.clusters = tuple(self.clusters)  # JSON hands back a list

    def validate(self) -> Sequence[int]:
        self._require(self.start >= 0, "start", "must be >= 0")
        self._require(self.period > 0, "period", "must be positive")
        self._require(len(self.clusters) > 0, "clusters", "needs at least one target cluster")
        return self.clusters

    def install(self, injector: FaultInjector, spec: "ScenarioSpec") -> None:
        stop = self.stop if self.stop is not None else max(spec.duration - 1.0, self.start)
        at, index = self.start, 0
        while at < stop:
            injector.deployment.add_joiner(
                self.clusters[index % len(self.clusters)],
                at_time=at,
                replica_id=f"{self.prefix}{index}",
                region=self.region,
            )
            index += 1
            at += self.period


def event_to_dict(event: ScenarioEvent) -> Dict[str, object]:
    """Serialize one schedule event (the ``kind`` tag selects the type)."""
    payload: Dict[str, object] = {"kind": event.kind}
    for key, value in asdict(event).items():
        payload[key] = list(value) if isinstance(value, tuple) else value
    return payload


def event_from_dict(payload: Dict[str, object]) -> ScenarioEvent:
    """Deserialize one schedule event from its tagged dictionary."""
    data = dict(payload)
    kind = data.pop("kind", None)
    if kind not in EVENT_TYPES:
        raise ConfigurationError(
            f"unknown schedule event kind {kind!r}; known kinds: {', '.join(EVENT_TYPES)}"
        )
    return _construct(EVENT_TYPES[kind], data, f"schedule event of kind {kind!r}")


# ---------------------------------------------------------------------- #
# Presets (baseline systems plug in here)
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class Preset:
    """A named system variant: a protocol configuration transform."""

    name: str
    transform: Callable[[HamavaConfig], HamavaConfig]


PRESETS: Dict[str, Preset] = {}


def register_preset(name: str, transform: Callable[[HamavaConfig], HamavaConfig]) -> None:
    """Register a scenario preset under ``name`` (case-insensitive)."""
    PRESETS[name.lower()] = Preset(name=name.lower(), transform=transform)


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


# ---------------------------------------------------------------------- #
# Configuration overrides
# ---------------------------------------------------------------------- #
def apply_config_overrides(config: HamavaConfig, overrides: Dict[str, object]) -> HamavaConfig:
    """Return a copy of ``config`` with overrides of its fields applied."""
    return replace(config, **_check_keys(HamavaConfig, overrides, "config override"))


def _congestion_from_dict(payload: Dict[str, object]) -> CongestionConfig:
    _check_keys(CongestionConfig, payload, "congestion")
    for stream in payload.get("streams", []):
        _check_keys(CrossTrafficStream, stream, "congestion stream")
    return CongestionConfig.from_dict(payload)


def _decoder(cls: type, what: str) -> Callable:
    return lambda value: _construct(cls, value, what)


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


#: (encode, decode) of a field whose JSON form is the value itself.
_PLAIN: Tuple[Callable, Callable] = (copy.deepcopy, lambda value: value)

#: ``ScenarioSpec`` field -> (encode, decode), for the fields whose JSON form
#: is not the value itself.
_CODECS: Dict[str, Tuple[Callable, Callable]] = {
    "clusters": (
        lambda value: [[size, region] for size, region in value],
        lambda value: [(int(size), str(region)) for size, region in value],
    ),
    "workload": (asdict, _decoder(YcsbConfig, "workload")),
    "population": (_optional(asdict), _optional(_decoder(PopulationConfig, "population"))),
    "config_overrides": (
        copy.deepcopy,
        lambda value: dict(_check_keys(HamavaConfig, value, "config override")),
    ),
    "rtt_overrides": (
        lambda value: [[a, b, rtt] for a, b, rtt in value],
        lambda value: [(a, b, float(rtt)) for a, b, rtt in value],
    ),
    "schedule": (
        lambda value: [event_to_dict(event) for event in value],
        lambda value: [event_from_dict(event) for event in value],
    ),
    "rtt_trace": (
        _optional(RttTrace.to_dict),
        _optional(lambda value: RttTrace.from_dict(_check_keys(RttTrace, value, "rtt_trace"))),
    ),
    "congestion": (_optional(CongestionConfig.to_dict), _optional(_congestion_from_dict)),
}


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
            cluster, driven by a constant arrival rate).
        population: Open-loop population parameters; required context when
            ``workload_model == "open"`` (defaults applied when ``None``).
        config_overrides: :class:`HamavaConfig` field overrides, layered
            over ``engine`` and the preset.
        region_overrides: Per-replica region placement.
        rtt_overrides: ``[(region_a, region_b, rtt_ms), ...]`` overrides of
            the inter-region RTT matrix (the E8 sweep).
        schedule: Unified list of timed events (joins, leaves, crashes,
            Byzantine switches, partitions, churn loops).
        timeseries_bucket: When set, the result row carries a throughput
            time series with this bucket width (failure/churn figures).
        collect_stages: When ``True`` the result row carries the E2
            per-stage latency breakdown.
        labels: Free-form tags copied into the result row (e.g. the sweep
            coordinates a figure plots against).
        shards: Forked worker processes the clusters are split across
            under ``shard_parallel`` (clamped to the cluster count).
            Results are byte-identical for every value; without
            ``shard_parallel`` the run is one kernel and this is inert.
        shard_parallel: Run the ``shards`` in forked worker processes
            (true parallelism).  Requires ``shards > 1``.
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
    config_overrides: Dict[str, object] = field(default_factory=dict)
    region_overrides: Dict[str, str] = field(default_factory=dict)
    rtt_overrides: List[Tuple[str, str, float]] = field(default_factory=list)
    schedule: List[ScenarioEvent] = field(default_factory=list)
    timeseries_bucket: Optional[float] = None
    collect_stages: bool = False
    labels: Dict[str, object] = field(default_factory=dict)
    shards: int = 1
    shard_parallel: bool = False
    rtt_trace: Optional[RttTrace] = None
    congestion: Optional[CongestionConfig] = None

    # ------------------------------------------------------------------ #
    # Derivations
    # ------------------------------------------------------------------ #
    def with_seed(self, seed: int) -> "ScenarioSpec":
        """An independent copy of this spec running under a different seed."""
        return replace(copy.deepcopy(self), seed=seed)

    def compiled_config(self) -> HamavaConfig:
        """The effective protocol configuration: engine → preset → overrides."""
        config = resolve_preset(self.preset).transform(HamavaConfig(engine=self.engine))
        return apply_config_overrides(config, self.config_overrides)

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
            for cluster_id in event.validate():
                if not 0 <= cluster_id < cluster_count:
                    raise ConfigurationError(
                        f"scenario {self.name!r}: event {event!r} targets cluster "
                        f"{cluster_id}, but only {cluster_count} clusters exist"
                    )

    # ------------------------------------------------------------------ #
    # Compilation and execution
    # ------------------------------------------------------------------ #
    def build(self, local_shard: Optional[int] = None) -> Deployment:
        """Compile this spec into a runnable :class:`Deployment`.

        Events are installed in list order, which fixes default joiner
        naming and the kernel's sequence numbers.  ``local_shard`` restricts
        construction to one worker's clusters (forked shard workers rebuild
        the same spec per worker).
        """
        self.validate()
        injector = FaultInjector(Deployment(self, local_shard=local_shard))
        for event in self.schedule:
            event.install(injector, self)
        return injector.deployment

    def run(self):
        """Build and execute this scenario, returning a typed result row."""
        from repro.harness.runner import run_scenario

        return run_scenario(self)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable description of this spec (one key per field)."""
        payload: Dict[str, object] = {}
        for spec_field in fields(self):
            encode, _ = _CODECS.get(spec_field.name, _PLAIN)
            payload[spec_field.name] = encode(getattr(self, spec_field.name))
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (absent keys take the defaults)."""
        data = {key: _CODECS.get(key, _PLAIN)[1](value) for key, value in payload.items()}
        return _construct(cls, data, f"scenario spec {payload.get('name', '?')!r}")

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


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
    "event_from_dict",
    "event_to_dict",
    "register_preset",
    "resolve_preset",
]
