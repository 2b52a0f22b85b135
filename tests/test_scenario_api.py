"""Tests for the declarative scenario API: spec, builder, runner, schedules."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from typing import ClassVar

import pytest

from helpers import FAST_TIMEOUTS, small_deployment
from repro.core.config import HamavaConfig
from repro.core.replica import MODE_ACTIVE, MODE_LEFT
from repro.errors import ConfigurationError
from repro.harness.builder import Scenario, normalize_replica_ref
from repro.harness.runner import ResultRow, ScenarioRunner, run_scenario
from repro.sim.events import LABEL
from repro.net.adversity import CongestionConfig, CrossTrafficStream, RttTrace
from repro.workload.population import PopulationConfig
from repro.workload.ycsb import YcsbConfig
from repro.harness.scenario import (
    EVENT_TYPES,
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
    apply_config_overrides,
    event_from_dict,
    event_to_dict,
    resolve_preset,
)

def fast_scenario(name: str, seed: int) -> Scenario:
    return Scenario(name).clusters(4, 4).engine("hotstuff").config(**FAST_TIMEOUTS).threads(4).seed(seed)


#: One row per way an event kind can be scheduled, on a two-worker deployment
#: (cluster 0 in worker 0, cluster 1 in worker 1): the event, the kernel labels
#: ``install()`` must schedule per forked worker — drop windows in every
#: worker, replica- and cluster-scoped faults in the owning worker only — and
#: the field values ``validate()`` must reject.
NEGATIVE_AT = {"at": -1.0}
EVENT_CASES = [
    (JoinEvent(cluster=1, at=0.5, replica_id="n", region="asia-south1"), {1: ["join:n"]}, [NEGATIVE_AT]),
    (LeaveEvent(replica="c1/r3", at=0.5), {1: ["leave:c1/r3"]}, [NEGATIVE_AT]),
    (
        CrashEvent(at=0.5, replica="c1/r2"),
        {1: ["fault:crash:c1/r2"]},
        [NEGATIVE_AT, {"replica": None}, {"scope": "sideways"}],
    ),
    (
        CrashEvent(at=0.5, cluster=0, scope="leader"),
        {0: ["fault:crash-leader:c0"]},
        [NEGATIVE_AT, {"cluster": None}],
    ),
    (
        CrashEvent(at=0.5, cluster=1, scope="non_leaders", count=1),
        {1: ["fault:crash-followers:c1"]},
        [{"cluster": None}],
    ),
    (
        ByzantineEvent(cluster=0, at=0.5),
        {0: ["fault:silent-inter:c0"]},
        [NEGATIVE_AT, {"behavior": "equivocate"}],
    ),
    (
        PartitionEvent(cluster_a=0, cluster_b=1, at=0.5, duration=0.2),
        {0: ["fault:partition"], 1: ["fault:partition"]},
        [NEGATIVE_AT, {"duration": -1.0}, {"duration": 0.0}, {"cluster_b": 0}],
    ),
    (
        GrayReplicaEvent(at=0.5, factor=4.0, replica="c1/r1", duration=0.1),
        {1: ["fault:gray:c1/r1"]},
        [NEGATIVE_AT, {"factor": 0.0}, {"duration": 0.0}, {"replica": None}, {"scope": "non_leaders"}],
    ),
    (
        GrayReplicaEvent(at=0.5, cluster=0, scope="leader"),
        {0: ["fault:gray-leader:c0"]},
        [{"cluster": None}],
    ),
    (
        ClockSkewEvent(at=0.5, rate=0.25, replica="c1/r1"),
        {1: ["fault:skew:c1/r1"]},
        [NEGATIVE_AT, {"rate": 0.0}, {"duration": -0.5}, {"replica": ""}],
    ),
    (
        ClockSkewEvent(at=0.5, cluster=0, scope="leader", duration=0.1),
        {0: ["fault:skew-leader:c0"]},
        [{"cluster": None}],
    ),
    (
        FlappingPartitionEvent(cluster_a=0, cluster_b=1, at=0.5, period=0.1, cycles=3, direction="a_to_b"),
        {0: ["fault:flap"] * 3, 1: ["fault:flap"] * 3},
        [NEGATIVE_AT, {"period": 0.0}, {"duty": 1.5}, {"cycles": 0}, {"direction": "up"}, {"cluster_b": 0}],
    ),
    (
        RegionOutageEvent(region="europe-west3", at=0.5, duration=0.2),
        {0: ["fault:region-outage"], 1: ["fault:region-outage"]},
        [NEGATIVE_AT, {"duration": 0.0}],
    ),
    (
        ChurnLoop(start=0.2, period=0.2, stop=0.7, clusters=(0, 1), prefix="ch"),
        {0: ["join:ch0", "join:ch2"], 1: ["join:ch1"]},
        [{"start": -0.1}, {"period": 0.0}, {"clusters": ()}],
    ),
]


def _two_shard_spec(schedule) -> ScenarioSpec:
    return ScenarioSpec(
        clusters=[(4, "us-west1"), (4, "europe-west3")], shards=2, duration=1.0, schedule=schedule
    )


def _pending_labels(deployment):
    """Fault/churn labels pending on the deployment's kernel, in firing order."""
    return [
        event[LABEL]
        for event in sorted(deployment.simulator._queue._heap)
        if event[LABEL].startswith(("fault:", "join:", "leave:"))
    ]


def _worker_labels(spec):
    """``worker -> pending labels`` of each forked worker's build (empty ones omitted)."""
    return {index: labels for index in (0, 1) if (labels := _pending_labels(spec.build(local_shard=index)))}


def _mutable_objects(value, seen=None):
    """``id -> object`` for every mutable object reachable from ``value``."""
    seen = {} if seen is None else seen
    if isinstance(value, (str, int, float, bool, type(None), type)) or id(value) in seen:
        return seen
    if isinstance(value, tuple):
        children = value
    else:
        seen[id(value)] = value
        if isinstance(value, dict):
            children = list(value.values())
        elif isinstance(value, (list, set)):
            children = value
        else:
            children = list(vars(value).values())
    for child in children:
        _mutable_objects(child, seen)
    return seen


def _assert_one_key_per_field(value, encoded, path):
    """Every dataclass inside a spec encodes to a dict with a key per field.

    A hand-written encoder that forgets a field loses the value silently,
    and a round trip cannot tell while the field sits at its default.
    """
    if is_dataclass(value):
        names = {spec_field.name for spec_field in fields(value)}
        assert isinstance(encoded, dict), path
        assert names <= set(encoded), f"{path} drops {sorted(names - set(encoded))}"
        for name in names:
            _assert_one_key_per_field(getattr(value, name), encoded[name], f"{path}.{name}")
    elif isinstance(value, (list, tuple)) and isinstance(encoded, list):
        for index, (item, item_encoded) in enumerate(zip(value, encoded)):
            _assert_one_key_per_field(item, item_encoded, f"{path}[{index}]")


class TestSerialization:
    def test_spec_round_trips_through_json(self):
        spec = (
            Scenario("rt")
            .clusters((4, "us-west1"), (7, "europe-west3"))
            .engine("bftsmart")
            .preset("geobft")
            .config(**FAST_TIMEOUTS)
            .workload(read_fraction=0.5)
            .place("c1/r0", "asia-south1")
            .rtt("us-west1", "europe-west3", 99.0)
            .join(0, at=1.0, replica_id="n0")
            .leave("r1.6", at=2.0)
            .crash("r0.1", at=2.5)
            .crash_leader(0, at=3.0)
            .byzantine_leader(1, at=3.5)
            .partition(0, 1, at=4.0, duration=0.5)
            .churn(start=5.0, period=0.5, clusters=(0, 1), prefix="c")
            .timeseries(0.5)
            .label(figure="fig5")
            .seeds(3)
            .spec()
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.to_json() == spec.to_json()
        assert restored.schedule == spec.schedule
        assert restored.workload == spec.workload
        assert restored.clusters == spec.clusters

    def test_every_event_kind_round_trips(self):
        events = [case[0] for case in EVENT_CASES]
        assert {event.kind for event in events} == set(EVENT_TYPES)
        for event in events:
            payload = json.loads(json.dumps(event_to_dict(event)))
            assert payload["kind"] == event.kind
            assert event_from_dict(payload) == event

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            event_from_dict({"kind": "meteor-strike", "at": 1.0})

    @pytest.mark.parametrize(
        "path, key, message",
        [
            pytest.param((), "clusterz", r"'nested'.*'clusterz'.*\bclusters\b", id="clusterz"),
            pytest.param(("schedule", 0), "replcia", r"'crash'.*'replcia'.*\breplica\b", id="schedule.0.replcia"),
            pytest.param(("population",), "shape", r"population: unknown key 'shape'.*\brate\b", id="population.shape"),
            pytest.param(("population",), "arrival", r"population: unknown key 'arrival'", id="population.arrival"),
            pytest.param(("workload",), "bogus", r"workload: unknown key 'bogus'.*\bread_fraction\b", id="workload.bogus"),
            pytest.param(("config_overrides",), "bogus", r"config override: unknown key 'bogus'", id="config_overrides.bogus"),
            pytest.param(("rtt_trace",), "bogus", r"rtt_trace: unknown key 'bogus'.*\bsegments\b", id="rtt_trace.bogus"),
            pytest.param(("congestion",), "bogus", r"congestion: unknown key 'bogus'.*\bstreams\b", id="congestion.bogus"),
            pytest.param(("congestion", "streams", 0), "bogus", r"congestion stream: unknown key 'bogus'", id="congestion.streams.0.bogus"),
            # Model constants and routes a spec no longer carries: a stored
            # spec that sets one fails by name instead of running silently
            # with the module constant.
            pytest.param((), "latency", r"'nested'.*unknown key 'latency'", id="latency"),
            pytest.param((), "network", r"'nested'.*unknown key 'network'", id="network"),
            pytest.param((), "config", r"'nested'.*unknown key 'config'", id="config"),
            pytest.param((), "replica_class", r"'nested'.*unknown key 'replica_class'", id="replica_class"),
            pytest.param(("workload",), "key_space", r"workload: unknown key 'key_space'", id="workload.key_space"),
            pytest.param(("population",), "batch_window", r"population: unknown key 'batch_window'", id="population.batch_window"),
            pytest.param(("congestion",), "window", r"congestion: unknown key 'window'", id="congestion.window"),
            pytest.param(("config_overrides",), "batch_size", r"config override: unknown key 'batch_size'", id="config_overrides.batch_size"),
        ],
    )
    def test_unknown_keys_are_named(self, path, key, message):
        payload = ScenarioSpec(
            name="nested",
            clusters=[(4, "us-west1")],
            schedule=[CrashEvent(at=1.0, replica="c0/r1")],
            population=PopulationConfig(),
            config_overrides=dict(FAST_TIMEOUTS),
            rtt_trace=RttTrace.from_dict({"segments": {"us-west1|europe-west3": [[0.0, 140.0]]}}),
            congestion=CongestionConfig(streams=[CrossTrafficStream("us-west1", "europe-west3", 1.0)]),
        ).to_dict()
        target = payload
        for step in path:
            target = target[step]
        target[key] = 1
        with pytest.raises(ConfigurationError, match=message):
            ScenarioSpec.from_dict(payload)

    def test_dict_form_has_one_key_per_field_and_copies_are_independent(self):
        trace = RttTrace.from_dict({"segments": {"us-west1|europe-west3": [[0.0, 140.0], [1.0, 90.0]]}})
        spec = ScenarioSpec(
            name="every-field",
            clusters=[(4, "us-west1"), (7, "europe-west3")],
            engine="bftsmart",
            preset="geobft",
            seed=5,
            duration=2.0,
            warmup=0.5,
            client_threads=3,
            clients_per_cluster=2,
            workload=YcsbConfig(read_fraction=0.5),
            workload_model="open",
            population=PopulationConfig(rate=300.0),
            config_overrides=dict(FAST_TIMEOUTS),
            region_overrides={"c1/r0": "asia-south1"},
            rtt_overrides=[("us-west1", "europe-west3", 99.0)],
            schedule=[case[0] for case in EVENT_CASES],
            timeseries_bucket=0.5,
            collect_stages=True,
            labels={"figure": "fig5", "sweep": {"z": [2, 4]}},
            shards=2,
            shard_parallel=True,
            rtt_trace=trace,
            congestion=CongestionConfig(
                streams=[CrossTrafficStream("us-west1", "europe-west3", 1.0e7, start=0.2, stop=0.5)]
            ),
        )
        for spec_field in fields(ScenarioSpec):
            default = (
                spec_field.default
                if spec_field.default is not MISSING
                else spec_field.default_factory()
            )
            assert getattr(spec, spec_field.name) != default, f"{spec_field.name} left at its default"
        assert set(spec.to_dict()) == {spec_field.name for spec_field in fields(ScenarioSpec)}
        _assert_one_key_per_field(spec, json.loads(spec.to_json()), "spec")
        spec.validate()
        for copied in (ScenarioSpec.from_json(spec.to_json()), spec.with_seed(5)):
            assert copied == spec
            assert copied.to_json() == spec.to_json()
            shared = _mutable_objects(spec).keys() & _mutable_objects(copied).keys()
            assert not shared, [type(_mutable_objects(spec)[key]).__name__ for key in shared]
        assert spec.with_seed(9).seed == 9


class TestBuilder:
    def test_fluent_chain_compiles_to_spec(self):
        specs = (
            Scenario("e4")
            .clusters(4, 4)
            .engine("hotstuff")
            .crash("r0.1", at=2.0)
            .join(cluster=1, at=3.0)
            .seeds(1, 2, 3)
            .specs()
        )
        assert [spec.seed for spec in specs] == [1, 2, 3]
        assert all(spec.clusters == [(4, "us-west1"), (4, "us-west1")] for spec in specs)
        assert specs[0].schedule == [
            CrashEvent(at=2.0, replica="c0/r1"),
            JoinEvent(cluster=1, at=3.0),
        ]

    def test_latest_of_seed_and_seeds_wins(self):
        assert [s.seed for s in Scenario("x").clusters(4).seeds(1, 2).seed(5).specs()] == [5]
        assert [s.seed for s in Scenario("x").clusters(4).seed(5).seeds(1, 2).specs()] == [1, 2]

    def test_replica_shorthand(self):
        assert normalize_replica_ref("r0.1") == "c0/r1"
        assert normalize_replica_ref("c2/r10") == "c2/r10"
        assert normalize_replica_ref("joiner1") == "joiner1"

    def test_clusters_region_kwarg_applies_to_bare_sizes_only(self):
        spec = (
            Scenario("s")
            .clusters(4, (7, "asia-south1"), region="europe-west3")
            .clusters(3)
            .spec()
        )
        assert spec.clusters == [(4, "europe-west3"), (7, "asia-south1"), (3, "us-west1")]

    def test_schedule_validation_catches_bad_cluster(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad").clusters(4).join(cluster=5, at=1.0).spec()

    def test_unknown_workload_field_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad").workload(think_time=1.0)

    def test_empty_churn_clusters_rejected(self):
        with pytest.raises(ConfigurationError):
            Scenario("bad").clusters(4).churn(start=1.0, period=1.0, clusters=()).spec()


class TestConfigCompilation:
    def test_overrides_reach_consensus_config(self):
        spec = Scenario("cfg").clusters(4).config(remote_timeout=3.0, instance_timeout=4.0).spec()
        config = spec.compiled_config()
        assert config.remote_timeout == 3.0
        assert config.instance_timeout == 4.0
        replica = spec.build().replicas["c0/r0"]
        assert replica.ordering.tob.instance_timeout == 4.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError, match="quantum_entanglement"):
            apply_config_overrides(HamavaConfig(), {"quantum_entanglement": True})

    @pytest.mark.parametrize(
        "build, key",
        [
            pytest.param(
                lambda: Scenario("m").clusters(4).config(with_engine=1).spec().compiled_config(),
                "with_engine",
                id="config.with_engine",
            ),
            pytest.param(lambda: Scenario("m").workload(validate=0), "validate", id="workload.validate"),
            pytest.param(lambda: Scenario("m").open_loop(copy=0), "copy", id="open_loop.copy"),
            pytest.param(lambda: Scenario("m").congestion(to_dict=0), "to_dict", id="congestion.to_dict"),
        ],
    )
    def test_method_names_are_not_fields(self, build, key):
        # The name checks once asked ``hasattr``, so a method name passed as
        # a field replaced the method and failed later, or never.
        with pytest.raises(ConfigurationError, match=f"unknown key '{key}'"):
            build()

    @pytest.mark.parametrize(
        "key",
        [
            "payload_byte_size",
            "chained_decide_grace",
            "local_reads",
            "inter_share_grace",
            "leader_change_epsilon",
        ],
    )
    def test_retired_consensus_options_rejected_by_name(self, key):
        # Each was settable though every caller used one value (a dead
        # field; constants of the chained engine, of stage 2 and of Alg. 2;
        # reads always served locally): the key is now simply unknown.
        spec = Scenario("cfg").clusters(4).config(**{key: 1}).spec()
        with pytest.raises(ConfigurationError, match=key):
            spec.compiled_config()

    def test_geobft_preset_transforms_config(self):
        spec = Scenario("geo").clusters(4).preset("geobft").spec()
        config = spec.compiled_config()
        assert config.engine == "bftsmart"
        assert config.pipeline_local_ordering is True
        assert config.parallel_reconfig is False

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_preset("paxos-classic")


class TestChurnScheduling:
    """Joins, leaves, and mixed schedules expressed as ScenarioSpec events."""

    def test_join_event_converges_everywhere(self):
        deployment = fast_scenario("join", seed=61).join(0, at=0.6, replica_id="newbie").build()
        deployment.run(duration=4.0)
        joiner = deployment.replicas["newbie"]
        assert joiner.mode == MODE_ACTIVE
        assert "newbie" in deployment.active_view(0), "join missing from active view"
        views = [
            set(replica.view[0])
            for replica in deployment.replicas.values()
            if replica.mode == MODE_ACTIVE
        ]
        assert all("newbie" in view for view in views)

    def test_leave_event_converges_everywhere(self):
        deployment = fast_scenario("leave", seed=65).leave("r1.3", at=0.6).build()
        deployment.run(duration=4.0)
        assert deployment.replicas["c1/r3"].mode == MODE_LEFT
        assert "c1/r3" not in deployment.active_view(1)

    def test_mixed_schedule_converges(self):
        deployment = (
            Scenario("mixed")
            .clusters(7, 7)
            .config(**FAST_TIMEOUTS)
            .threads(4)
            .seed(67)
            .join(0, at=0.6, replica_id="n0")
            .leave("c0/r6", at=0.8)
            .build()
        )
        deployment.run(duration=5.0)
        view = deployment.active_view(0)
        assert "n0" in view
        assert "c0/r6" not in view

    def test_churn_loop_expands_to_periodic_joins(self):
        deployment = (
            fast_scenario("churn", seed=68)
            .duration(4.0)
            .churn(start=0.5, period=1.0, stop=2.6, clusters=(0, 1), prefix="ch")
            .build()
        )
        assert {"ch0", "ch1", "ch2"}.issubset(deployment.replicas)
        metrics = deployment.run(duration=4.0)
        assert len(metrics.reconfigs) > 0

    def test_imperative_shim_behaves_identically(self):
        """``add_joiner`` / ``schedule_leave`` and the event schedule produce the same run."""
        imperative = small_deployment(seed=81)
        imperative.add_joiner(0, at_time=0.6, replica_id="newbie")
        imperative.schedule_leave("c1/r3", at_time=1.0)
        imperative_metrics = imperative.run(duration=4.0)

        declarative = (
            fast_scenario("shim", seed=81)
            .join(0, at=0.6, replica_id="newbie")
            .leave("r1.3", at=1.0)
            .build()
        )
        declarative_metrics = declarative.run(duration=4.0)

        assert declarative_metrics.summary() == imperative_metrics.summary()
        assert declarative.active_view(0) == imperative.active_view(0)
        assert declarative.active_view(1) == imperative.active_view(1)

    def test_crash_and_byzantine_events_schedule(self):
        deployment = (
            fast_scenario("faults", seed=82)
            .crash("r0.3", at=1.0)
            .byzantine_leader(1, at=1.5)
            .build()
        )
        deployment.run(duration=2.0)
        assert deployment.replicas["c0/r3"].crashed
        leader = deployment.replicas["c1/r0"]
        byzantine = [r for r in deployment.replicas.values() if r.byzantine.silent_inter_after]
        assert len(byzantine) == 1


class TestEventTable:
    """Every schedule-event kind: what it rejects and what it schedules."""

    @pytest.mark.parametrize(
        "event, labels, rejected", EVENT_CASES, ids=[f"{c[0].kind}-{i}" for i, c in enumerate(EVENT_CASES)]
    )
    def test_validate_rejects_and_install_schedules(self, event, labels, rejected):
        assert set(event.validate()) <= {0, 1}
        for changes in rejected:
            bad = replace(event, **changes)
            with pytest.raises(ConfigurationError, match=f"{type(event).__name__}.({'|'.join(changes)})"):
                bad.validate()
            # ... and so the spec carrying it fails before anything is built.
            with pytest.raises(ConfigurationError):
                _two_shard_spec([bad]).validate()
        assert _worker_labels(_two_shard_spec([event])) == labels
        # In process, one kernel: a drop window installs once, every other
        # event exactly as in the worker that runs its target.
        in_process = _pending_labels(_two_shard_spec([event]).build())
        if isinstance(event, (PartitionEvent, FlappingPartitionEvent, RegionOutageEvent)):
            assert in_process == labels[0] == labels[1]
        else:
            assert sorted(in_process) == sorted(sum(labels.values(), []))

    def test_a_drop_window_heals_itself_once_installed(self):
        spec = _two_shard_spec([PartitionEvent(cluster_a=0, cluster_b=1, at=0.1, duration=0.2)])
        deployment = spec.build()
        deployment.run(duration=0.15)
        assert _pending_labels(deployment) == ["fault:heal"]
        assert len(deployment.network.drop_rules) == 1
        deployment.run(duration=0.2)
        assert deployment.network.drop_rules == []

    def test_only_partitions_read_all_clusters(self):
        flagged = {kind for kind, event in EVENT_TYPES.items() if event.reads_all_clusters}
        assert flagged == {"partition", "flapping_partition"}

    def test_replica_fault_on_a_forked_worker_installs_on_the_owner_only(self):
        spec = _two_shard_spec([CrashEvent(at=0.5, replica="c1/r2")])
        assert _pending_labels(spec.build(local_shard=0)) == []
        assert _pending_labels(spec.build(local_shard=1)) == ["fault:crash:c1/r2"]
        for local_shard in (None, 0, 1):
            with pytest.raises(ConfigurationError, match="c9/r9"):
                _two_shard_spec([CrashEvent(at=0.5, replica="c9/r9")]).build(local_shard=local_shard)


    def test_a_new_kind_is_one_class(self):
        """The README example: no table, ladder or injector method to extend."""
        try:

            @dataclass
            class RegionCrashEvent(ScenarioEvent):
                kind: ClassVar[str] = "region_crash"
                region: str
                at: float

                def install(self, injector, spec):
                    placed_in = injector.deployment.latency_model.region_of
                    for replica_id in list(injector.deployment.replicas):
                        if placed_in(replica_id) == self.region:
                            injector.on_replica(
                                replica_id,
                                self.at,
                                f"fault:crash:{replica_id}",
                                lambda replica, kernel: replica.crash(),
                            )

            spec = _two_shard_spec([RegionCrashEvent(region="europe-west3", at=0.1)])
            spec = ScenarioSpec.from_json(spec.to_json())
            assert spec.schedule == [RegionCrashEvent(region="europe-west3", at=0.1)]
            with pytest.raises(ConfigurationError, match="RegionCrashEvent.at"):
                _two_shard_spec([RegionCrashEvent(region="europe-west3", at=-1.0)]).validate()
            deployment = spec.build()
            deployment.run(duration=0.2)
            crashed = sorted(r.process_id for r in deployment.replicas.values() if r.crashed)
            assert crashed == ["c1/r0", "c1/r1", "c1/r2", "c1/r3"]
        finally:
            EVENT_TYPES.pop("region_crash", None)


class TestRunner:
    def test_parallel_rows_byte_identical_to_serial(self):
        def grid():
            return [
                fast_scenario("a", seed=1).duration(1.0).seeds(1, 2),
                fast_scenario("b", seed=1).duration(1.0).join(0, at=0.4).seeds(1, 2),
            ]

        serial = ScenarioRunner(workers=1).run(grid())
        parallel = ScenarioRunner(workers=2).run(grid())
        assert [row.to_json() for row in serial] == [row.to_json() for row in parallel]
        assert [(row.scenario, row.seed) for row in serial] == [
            ("a", 1), ("a", 2), ("b", 1), ("b", 2),
        ]

    def test_seeds_argument_overrides_scenario_seeds(self):
        specs = ScenarioRunner().expand(fast_scenario("s", seed=9), seeds=[4, 5])
        assert [spec.seed for spec in specs] == [4, 5]

    def test_one_shot_seeds_iterable_expands_every_scenario(self):
        specs = ScenarioRunner().expand(
            [fast_scenario("a", seed=1), fast_scenario("b", seed=1)], seeds=iter([1, 2])
        )
        assert [(spec.name, spec.seed) for spec in specs] == [
            ("a", 1), ("a", 2), ("b", 1), ("b", 2),
        ]

    def test_rows_persist_and_reload(self, tmp_path):
        rows = ScenarioRunner().run(fast_scenario("persist", seed=3).duration(1.0))
        path = str(tmp_path / "rows.json")
        ScenarioRunner.save(rows, path)
        reloaded = ScenarioRunner.load(path)
        assert [row.to_json() for row in reloaded] == [row.to_json() for row in rows]
        assert isinstance(reloaded[0], ResultRow)

    def test_run_scenario_collects_series_and_stages(self):
        spec = fast_scenario("collect", seed=7).duration(1.2).timeseries(0.5).stages().spec()
        row = run_scenario(spec)
        assert row.series is not None and len(row.series) >= 2
        assert set(row.stages) == {"stage1", "stage2", "stage3"}
        assert row.engine == "hotstuff"
        assert row.throughput > 0
