"""Tests for the declarative scenario API: spec, builder, runner, schedules."""

from __future__ import annotations

import json

import pytest

from helpers import fast_config
from repro.core.replica import MODE_ACTIVE, MODE_LEFT
from repro.errors import ConfigurationError
from repro.harness.builder import DeploymentBuilder, Scenario, normalize_replica_ref
from repro.harness.deployment import build_deployment
from repro.harness.runner import ResultRow, ScenarioRunner, run_scenario
from repro.harness.scenario import (
    ByzantineEvent,
    ChurnLoop,
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    PartitionEvent,
    ScenarioSpec,
    apply_config_overrides,
    event_from_dict,
    event_to_dict,
    resolve_preset,
)
from repro.workload.clients import ReconfigurationClient

#: Timeout/retry overrides matching ``helpers.fast_config`` for short runs.
FAST = dict(remote_timeout=2.0, instance_timeout=2.0, brd_timeout=2.0, retry_timeout=2.0)


def fast_scenario(name: str, seed: int) -> Scenario:
    return Scenario(name).clusters(4, 4).engine("hotstuff").config(**FAST).threads(4).seed(seed)


class TestSerialization:
    def test_spec_round_trips_through_json(self):
        spec = (
            Scenario("rt")
            .clusters((4, "us-west1"), (7, "europe-west3"))
            .engine("bftsmart")
            .preset("geobft")
            .config(**FAST)
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
        events = [
            JoinEvent(cluster=1, at=2.0, replica_id="x", region="eu"),
            LeaveEvent(replica="c0/r1", at=1.0),
            CrashEvent(at=1.5, replica="c0/r2"),
            CrashEvent(at=1.5, cluster=0, scope="leader"),
            CrashEvent(at=1.5, cluster=1, scope="non_leaders", count=2),
            ByzantineEvent(cluster=0, at=3.0),
            PartitionEvent(cluster_a=0, cluster_b=1, at=2.0, duration=1.0),
            ChurnLoop(start=1.0, period=0.5, stop=4.0, clusters=(0, 1), prefix="p"),
        ]
        for event in events:
            payload = json.loads(json.dumps(event_to_dict(event)))
            assert event_from_dict(payload) == event

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            event_from_dict({"kind": "meteor-strike", "at": 1.0})

    def test_spec_with_base_config_round_trips(self):
        spec = ScenarioSpec(name="cfg", clusters=[(4, "us-west1")], config=fast_config())
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.config == spec.config


class TestBuilder:
    def test_fluent_chain_compiles_to_spec(self):
        specs = (
            DeploymentBuilder("e4")
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

    def test_region_applies_to_bare_clusters_only(self):
        spec = (
            Scenario("regions")
            .clusters(4, (7, "asia-south1"))
            .region("europe-west3")
            .clusters(3)
            .spec()
        )
        assert spec.clusters == [(4, "europe-west3"), (7, "asia-south1"), (3, "europe-west3")]

    def test_region_keeps_explicit_region_kwarg(self):
        spec = (
            Scenario("s")
            .clusters(4, region="europe-west3")
            .region("asia-south1")
            .clusters(3)
            .spec()
        )
        assert spec.clusters == [(4, "europe-west3"), (3, "asia-south1")]

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
        assert config.consensus.instance_timeout == 4.0

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_config_overrides(fast_config(), {"quantum_entanglement": True})

    @pytest.mark.parametrize("key", ["payload_byte_size", "chained_decide_grace"])
    def test_retired_consensus_options_rejected_by_name(self, key):
        # Both were settable until nothing read them (a dead field; a
        # constant of the chained engine): the key is now simply unknown.
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
            .config(**FAST)
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
        """The old mutation path and the event schedule produce the same run."""
        imperative = build_deployment(
            [(4, "us-west1"), (4, "us-west1")],
            engine="hotstuff",
            seed=81,
            config=fast_config(),
            client_threads=4,
        )
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

    def test_serial_run_accepts_non_importable_replica_class(self):
        from repro.core.replica import HamavaReplica

        class LocalReplica(HamavaReplica):
            pass

        rows = (
            fast_scenario("local-cls", seed=3)
            .duration(1.0)
            .replica_class(LocalReplica)
            .run(workers=1)
        )
        assert rows[0].throughput > 0

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


class TestReconfigClientRegion:
    def test_default_region_follows_first_cluster(self):
        deployment = build_deployment(
            [(4, "asia-south1"), (4, "europe-west3")], config=fast_config(), client_threads=4
        )
        client = ReconfigurationClient("churn-client", deployment.simulator)
        deployment.add_reconfig_client(client)
        assert deployment.latency_model.region_of("churn-client") == "asia-south1"

    def test_explicit_region_wins(self):
        deployment = build_deployment(
            [(4, "asia-south1")], config=fast_config(), client_threads=4
        )
        client = ReconfigurationClient("churn-client", deployment.simulator)
        deployment.add_reconfig_client(client, region="europe-west3")
        assert deployment.latency_model.region_of("churn-client") == "europe-west3"

    def test_scenario_churn_region_flows_through(self):
        deployment = (
            Scenario("churn-region")
            .clusters((4, "us-west1"), (4, "europe-west3"))
            .config(**FAST)
            .threads(4)
            .churn_region("europe-west3")
            .build()
        )
        client = ReconfigurationClient("churn-client", deployment.simulator)
        deployment.add_reconfig_client(client)
        assert deployment.latency_model.region_of("churn-client") == "europe-west3"
