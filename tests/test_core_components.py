"""Tests for core value types, configuration, state machine, and collection."""

from __future__ import annotations

import pytest

from repro.core.config import ClusterSpec, HamavaConfig, SystemConfig, failure_threshold
from repro.core.messages import ReconfigAck, RequestJoin, RequestLeave
from repro.core.reconfiguration import ReconfigurationCollector, RequestTracker
from repro.core.statemachine import ExecutionPlan, KeyValueStore
from repro.core.types import (
    OperationsBundle,
    Transaction,
    join_request,
    leave_request,
    make_transaction,
)
from repro.errors import ConfigurationError
from repro.net.crypto import KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.message import Envelope
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from tests import helpers


class TestFailureThreshold:
    @pytest.mark.parametrize(
        "size,expected", [(1, 0), (3, 0), (4, 1), (6, 1), (7, 2), (10, 3), (13, 4)]
    )
    def test_paper_formula(self, size, expected):
        assert failure_threshold(size) == expected

    def test_heterogeneous_example_from_paper(self):
        # §II: clusters of 4 and 7 have thresholds 1 and 2 respectively.
        assert failure_threshold(4) == 1
        assert failure_threshold(7) == 2


class TestSystemConfig:
    def test_build_generates_unique_ids(self):
        config = SystemConfig.build([(4, "us-west1"), (7, "asia-south1")])
        ids = [replica for cluster_id in config.cluster_ids() for replica in config.members(cluster_id)]
        assert len(ids) == len(set(ids)) == 11
        assert config.members(1)[2] == "c1/r2"
        assert [config.clusters[cluster_id].size for cluster_id in config.cluster_ids()] == [4, 7]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(clusters={0: ClusterSpec(0, "us-west1", [])}).validate()

    def test_duplicate_members_rejected(self):
        spec = ClusterSpec(0, "us-west1", ["a", "a"])
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_overlapping_clusters_rejected(self):
        config = SystemConfig(
            clusters={
                0: ClusterSpec(0, "us-west1", ["a", "b", "c"]),
                1: ClusterSpec(1, "us-west1", ["c", "d", "e"]),
            }
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_initial_view_is_independent_copy(self):
        """Each call is a fresh dict over immutable member sets: a replica
        can only replace a cluster's set, which nobody else sees."""
        config = SystemConfig.build([(3, "us-west1")])
        view = config.initial_view()
        assert view is not config.initial_view()
        assert type(view[0]) is frozenset
        with pytest.raises(AttributeError):
            view[0].add("intruder")
        view[0] = view[0] | {"intruder"}
        assert "intruder" not in config.members(0)
        assert "intruder" not in config.initial_view()[0]


class TestHamavaConfig:
    def test_with_engine_does_not_mutate_original(self):
        base = HamavaConfig()
        other = base.with_engine("bftsmart")
        assert base.engine == "hotstuff"
        assert other.engine == "bftsmart"


class TestTransactionsAndBundles:
    def test_make_transaction_ids_are_unique(self):
        a = make_transaction("c", "r", "write", "k", "v")
        b = make_transaction("c", "r", "write", "k", "v")
        assert a.txn_id != b.txn_id

    def test_is_read(self):
        assert make_transaction("c", "r", "read", "k").is_read
        assert not make_transaction("c", "r", "write", "k", "v").is_read

    def test_bundle_accounting(self):
        bundle = OperationsBundle(
            cluster_id=0,
            round_number=1,
            transactions=[make_transaction("c", "r", "write", "k", "v")],
            reconfigs=(join_request("x", 0),),
        )
        assert bundle.size_bytes() > 1024


def apply(store, transaction):
    """Execute a one-transaction batch; returns its response value."""
    return store.execute(ExecutionPlan([transaction]), [0])[0]


class TestKeyValueStore:
    def test_write_then_read(self):
        store = KeyValueStore()
        apply(store, make_transaction("c", "r", "write", "k", "v1"))
        assert store.read("k") == "v1"
        assert store.applied == 1

    def test_read_returns_current_value(self):
        store = KeyValueStore()
        txn = make_transaction("c", "r", "read", "missing")
        assert apply(store, txn) is None

    def test_snapshot_restore_roundtrip(self):
        store = KeyValueStore()
        apply(store, make_transaction("c", "r", "write", "a", "1"))
        snapshot = store.snapshot()
        other = KeyValueStore()
        other.restore(snapshot)
        assert other.read("a") == "1"
        # Restoring is a copy, not an alias.
        apply(store, make_transaction("c", "r", "write", "a", "2"))
        assert other.read("a") == "1"


class CollectorHost(Process):
    def __init__(self, process_id, simulator, network, members):
        super().__init__(process_id, simulator)
        network.register(self, "us-west1")
        self.acks = []
        self.collector = ReconfigurationCollector(
            owner=process_id,
            cluster_id=0,
            network=network,
            members_fn=helpers.members_fn(members),
            round_fn=lambda: 1,
        )

    def on_message(self, sender, envelope):
        if isinstance(envelope.payload, ReconfigAck):
            self.acks.append(sender)
        else:
            self.collector.on_message(sender, envelope)


class TestReconfigurationCollector:
    def _setup(self):
        simulator = Simulator(seed=6)
        registry = KeyRegistry(seed=6)
        network = Network(simulator, LatencyModel(), registry)
        members = ["p0", "p1", "p2", "p3"]
        hosts = [CollectorHost(m, simulator, network, members) for m in members]
        joiner = CollectorHost("newbie", simulator, network, members)
        return simulator, network, hosts, joiner

    def test_join_request_collected_and_acked(self):
        simulator, network, hosts, joiner = self._setup()
        message = RequestJoin(cluster_id=0, round_number=1, region="us-west1")
        for host in hosts:
            network.send("newbie", host.process_id, message,
                         network.registry.sign("newbie", message.digest()))
        simulator.run(until=1.0)
        for host in hosts:
            assert join_request("newbie", 0, "us-west1") in host.collector.current_recs()
        assert len(joiner.acks) == 4

    def test_leave_request_collected(self):
        simulator, network, hosts, _ = self._setup()
        message = RequestLeave(cluster_id=0, round_number=1)
        network.send("p3", "p0", message, network.registry.sign("p3", message.digest()))
        simulator.run(until=1.0)
        assert leave_request("p3", 0) in hosts[0].collector.current_recs()

    def test_wrong_cluster_ignored(self):
        simulator, network, hosts, _ = self._setup()
        message = RequestJoin(cluster_id=9, round_number=1)
        network.send("newbie", "p0", message, network.registry.sign("newbie", message.digest()))
        simulator.run(until=1.0)
        assert not hosts[0].collector.current_recs()

    def test_mark_applied_removes_and_blocks_recollection(self):
        simulator, network, hosts, _ = self._setup()
        request = join_request("newbie", 0)
        collector = hosts[0].collector
        collector.add(request)
        collector.mark_applied([request])
        assert not collector.current_recs()
        collector.add(request)
        assert not collector.current_recs()


class TestRequestTracker:
    def test_quorum_satisfaction(self):
        tracker = RequestTracker(lambda: 3)
        assert tracker.should_retry()
        tracker.record_ack("a")
        tracker.record_ack("b")
        assert not tracker.satisfied
        assert tracker.record_ack("c")
        assert not tracker.should_retry()

    def test_duplicate_acks_do_not_count_twice(self):
        tracker = RequestTracker(lambda: 2)
        tracker.record_ack("a")
        tracker.record_ack("a")
        assert not tracker.satisfied
        assert tracker.record_ack("b")
