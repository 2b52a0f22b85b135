"""The replica's stage components, driven over a bare ``Network``.

No ``Deployment``, no clients, no workload: a handful of replicas are built
on one network and one component is driven directly, so each test reads
one stage's state.  The ``CurrState`` tests go through ``on_message``, the
path a joiner's state transfer takes in a run.
"""

from __future__ import annotations

import pytest

from repro.consensus.interface import commit_digest
from repro.core.brd import ready_digest
from repro.core.config import HamavaConfig, SystemConfig
from repro.core.messages import (
    ClientBatchRequest,
    ClientBatchResponse,
    ClientRequest,
    ClientResponse,
    CurrState,
    Inter,
    LComplaint,
    LocalShare,
    ReadLeaseGrant,
)
from repro.core import replica as replica_module
from repro.core.replica import MODE_ACTIVE, MODE_IDLE, MODE_JOINING, HamavaReplica
from repro.core.types import OperationsBundle, join_request, leave_request, make_transaction
from repro.net.crypto import Certificate, KeyRegistry
from repro.net.latency import LatencyModel
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator

C0 = ("c0/r0", "c0/r1", "c0/r2", "c0/r3")
C1 = ("c1/r0", "c1/r1", "c1/r2", "c1/r3")


def _system(config: HamavaConfig | None = None, metrics=None):
    """Two clusters of four on one bare network; replicas built, not started."""
    simulator = Simulator(seed=5)
    network = Network(simulator, LatencyModel(), KeyRegistry(seed=5))
    system = SystemConfig.build([(4, "us-west1"), (4, "us-west1")])
    replicas = {
        replica_id: HamavaReplica(
            replica_id, cluster_id, system, network, simulator, config=config, metrics=metrics
        )
        for cluster_id in system.cluster_ids()
        for replica_id in system.members(cluster_id)
    }
    return simulator, network, system, replicas


class _Client(Process):
    """Records every payload delivered to it."""

    def __init__(self, client_id, simulator, network):
        super().__init__(client_id, simulator)
        network.register(self, "us-west1")
        self.received = []

    def on_message(self, sender, envelope):
        self.received.append(envelope.payload)


class _LeaseMetrics:
    """The one metrics call the client front makes: lease hits and misses."""

    def __init__(self):
        self.hits = self.misses = 0

    def record_lease_reads(self, hits, misses):
        self.hits += hits
        self.misses += misses


# ---------------------------------------------------------------------- #
# GlobalSharing: the staggered LocalShare of an Inter
# ---------------------------------------------------------------------- #
def _remote_bundle(network, round_number=1):
    """A validly certified empty bundle of cluster 1 (2f+1 = 3 of its four)."""
    txn_cert = Certificate(commit_digest(1, round_number, []))
    ready_cert = Certificate(ready_digest(1, round_number, ()), kind="ready")
    for member in C1[:3]:
        txn_cert.add(network.registry.sign(member, txn_cert.digest))
        ready_cert.add(network.registry.sign(member, ready_cert.digest))
    return OperationsBundle(
        cluster_id=1, round_number=round_number, transactions=[], reconfigs=(),
        txn_certificate=txn_cert, recs_ready_certificate=ready_cert,
    )


def _grace(replica) -> float:
    """The wait before a fallback or a pull: the local hop plus two jitter spreads."""
    model = replica.network.latency_model
    spread = model.pair_params("c1/r0", replica.process_id)[1]
    return replica_module.INTER_SHARE_GRACE + 2 * spread


def _record_shares(network):
    """Wrap ``multicast``; the list collects ``(sender, receivers, full)`` per LocalShare."""
    sent = []
    multicast = network.multicast

    def recording(sender, destinations, payload, signature=None):
        if isinstance(payload, LocalShare):
            sent.append((sender, tuple(destinations), payload.bundle is not None))
        multicast(sender, destinations, payload, signature)

    network.multicast = recording
    return sent


def _full_copies(sent):
    return sorted(receiver for _, receivers, full in sent if full for receiver in receivers)


def _headers(sent):
    return sorted(receiver for _, receivers, full in sent if not full for receiver in receivers)


def _holders(replicas):
    return [replica_id for replica_id in C0 if 1 in replicas[replica_id].operations]


class TestInterStagger:
    """Cluster 0 has ``f = 1``: the remote leader reaches ``c0/r0`` and ``c0/r1``."""

    def test_the_first_target_sends_full_copies_only_where_the_leader_did_not_reach(self):
        simulator, network, _, replicas = _system()
        sent = _record_shares(network)
        inter = Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network))
        replicas[C0[0]].sharing.on_inter("c1/r0", inter)
        assert _full_copies(sent) == ["c0/r0", "c0/r2", "c0/r3"]  # itself and the two non-targets
        assert _headers(sent) == ["c0/r1"]
        assert network.stats.bytes_sent == 2 * inter.bundle.size_bytes() + 128

    def test_a_later_target_adopts_its_own_inter_and_stays_quiet(self):
        simulator, network, _, replicas = _system()
        sent = _record_shares(network)
        inter = Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network))
        replicas[C0[1]].sharing.on_inter("c1/r0", inter)
        replicas[C0[0]].sharing.on_inter("c1/r0", inter)
        simulator.run(until=10 * _grace(replicas[C0[1]]))
        assert (1, 1) in replicas[C0[1]].sharing.peer_shared
        assert replicas[C0[1]].sharing.fallback_broadcasts == 0
        # Each member received the bundle once: its Inter or one full share.
        assert _full_copies(sent) == ["c0/r0", "c0/r1", "c0/r2", "c0/r3"]
        assert _holders(replicas) == list(C0)
        assert network.stats.by_type["ShareRequest"] == 0

    def test_a_later_target_falls_back_when_the_first_stays_silent(self):
        simulator, network, _, replicas = _system()
        sent = _record_shares(network)
        later = replicas[C0[1]]
        later.sharing.on_inter("c1/r0", Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network)))
        simulator.run(until=_grace(later) / 2)
        assert _holders(replicas) == ["c0/r1"]
        simulator.run(until=10 * _grace(later))
        assert later.sharing.fallback_broadcasts == 1
        assert _full_copies(sent) == list(C0)
        assert _holders(replicas) == list(C0)

    def test_the_fallback_reaches_the_view_the_inter_arrived_in(self):
        # A member leaving in this round needs the bundle to execute its own
        # leave; the fallback must not use the view of the next round.
        simulator, network, _, replicas = _system()
        later = replicas[C0[1]]
        later.sharing.on_inter("c1/r0", Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network)))
        later.execution.apply_reconfig(0, leave_request("c0/r3", 0))
        assert "c0/r3" not in later.local_members()
        simulator.run(until=10 * _grace(later))
        assert later.sharing.fallback_broadcasts == 1
        assert 1 in replicas["c0/r3"].operations

    def test_a_target_the_remote_leader_skipped_pulls_the_bundle(self):
        simulator, network, _, replicas = _system()
        skipped = replicas[C0[1]]
        replicas[C0[0]].sharing.on_inter("c1/r0", Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network)))
        simulator.run(until=_grace(skipped) / 2)
        assert (1, 1) in skipped.sharing.peer_shared and 1 not in skipped.operations
        simulator.run(until=10 * _grace(skipped))
        assert network.stats.by_type["ShareRequest"] == 1
        assert skipped.sharing.fallback_broadcasts == 0
        assert _holders(replicas) == list(C0)

    def test_a_holder_answers_a_local_complaint_about_the_bundle(self):
        # A first target that shared with the other targets only leaves the
        # rest of the cluster to complain; a holder answers with the bundle.
        simulator, network, _, replicas = _system()
        holder, starved = replicas[C0[1]], replicas[C0[3]]
        holder.sharing.on_inter("c1/r0", Inter(round_number=1, cluster_id=1, bundle=_remote_bundle(network)))
        holder.sharing.peer_shared.add((1, 1))  # the selective first target's share
        simulator.run(until=_grace(holder) / 2)
        assert 1 in holder.operations and 1 not in starved.operations
        complaint = LComplaint(target_cluster=1, complaint_number=0, round_number=1, origin_cluster=0)
        _deliver(holder, starved.process_id, complaint)
        simulator.run(until=1.0)
        assert 1 in starved.operations

    def test_a_share_for_the_next_round_waits_for_start_round(self):
        # Between executing round 1 and opening round 2 (the execution
        # delay) ``operations`` still holds round 1's bundles; a round-2
        # share arriving then was dropped as a duplicate.
        _, network, _, replicas = _system()
        replica = replicas[C0[2]]
        replica.operations[1] = _remote_bundle(network, round_number=1)
        replica.round_state.stage2_done_at = 0.0
        replica.round_number = 2
        share = LocalShare(round_number=2, cluster_id=1, bundle=_remote_bundle(network, round_number=2))
        replica.sharing.on_local_share(C0[0], share)
        assert replica.operations[1].round_number == 1
        replica.start_round()
        assert replica.operations[1].round_number == 2

    def test_a_relabelled_bundle_is_rejected(self):
        _, network, _, replicas = _system()
        bundle = _remote_bundle(network)
        assert replicas[C0[0]].sharing.bundle_valid(1, 1, bundle)
        assert not replicas[C0[0]].sharing.bundle_valid(1, 2, bundle)


# ---------------------------------------------------------------------- #
# Execution: reconfigurations move the view, and its caches follow
# ---------------------------------------------------------------------- #
class TestReconfigurationApply:
    def test_membership_caches_follow_the_view(self):
        _, _, _, replicas = _system()
        replica = replicas[C0[0]]
        assert replica.local_members() == C0 and replica.faults(0) == 1
        assert replica.sorted_view_ids() == [0, 1]
        joiners = ("c0/r4", "c0/r5", "c0/r6")
        for joiner in joiners:
            replica.execution.apply_reconfig(0, join_request(joiner, 0, "us-west1"))
        assert replica.local_members() == replica.members(0) == (*C0, *joiners)
        assert replica.faults(0) == replica.local_faults() == 2  # n = 7
        replica.execution.apply_reconfig(0, leave_request("c0/r6", 0))
        assert replica.local_members() == (*C0, "c0/r4", "c0/r5") and replica.faults(0) == 1
        replica.execution.apply_reconfig(2, join_request("c2/r0", 2, "us-west1"))
        assert replica.sorted_view_ids() == [0, 1, 2] and replica.members(2) == ("c2/r0",)
        assert [request.process_id for _, request in replica.execution.reconfigs_applied] == [
            *joiners, "c0/r6", "c2/r0"
        ]


# ---------------------------------------------------------------------- #
# ClientFront: admission for both client kinds, and read leases
# ---------------------------------------------------------------------- #
class TestClientFront:
    def test_closed_loop_read_is_answered_here_and_write_goes_to_the_leader(self):
        simulator, network, _, replicas = _system()
        client = _Client("client-0", simulator, network)
        follower, leader = replicas[C0[1]], replicas[C0[0]]
        follower.kv.data["k"] = "v"
        read = make_transaction("client-0", follower.process_id, "read", "k")
        write = make_transaction("client-0", follower.process_id, "write", "k", "w")
        _deliver(follower, "client-0", ClientRequest(transaction=read))
        _deliver(follower, "client-0", ClientRequest(transaction=write))
        assert list(follower.front.forwarded) == [write.txn_id]
        simulator.run(until=0.1)
        [response] = client.received
        assert isinstance(response, ClientResponse)
        assert (response.txn_id, response.value) == (read.txn_id, "v")
        assert list(leader.ordering.leader_queue) == [write]
        assert not follower.ordering.leader_queue

    def test_open_loop_batch_serves_reads_and_forwards_writes_in_one_envelope(self):
        simulator, network, _, replicas = _system()
        population = _Client("pop-0", simulator, network)
        follower, leader = replicas[C0[1]], replicas[C0[0]]
        reads = [make_transaction("pop-0", follower.process_id, "read", "k") for _ in range(2)]
        writes = [make_transaction("pop-0", follower.process_id, "write", "k", "w") for _ in range(3)]
        _deliver(follower, "pop-0", ClientBatchRequest(transactions=(*reads, *writes)))
        assert follower.front.batch_clients == {"pop-0"}
        assert list(follower.front.forwarded) == [w.txn_id for w in writes]
        assert network.stats.by_type["ClientBatchRequest"] == 1
        simulator.run(until=0.1)
        [response] = population.received
        assert isinstance(response, ClientBatchResponse)
        assert [txn_id for txn_id, _ in response.entries] == [r.txn_id for r in reads]
        assert list(leader.ordering.leader_queue) == writes
        assert not leader.front.batch_clients  # a forwarding peer is not a client

    def test_lease_misses_forward_and_lease_hits_answer_locally(self):
        metrics = _LeaseMetrics()
        simulator, network, _, replicas = _system(
            HamavaConfig(read_leases=True), metrics
        )
        population = _Client("pop-0", simulator, network)
        follower, leader = replicas[C0[1]], replicas[C0[0]]
        read = make_transaction("pop-0", follower.process_id, "read", "k")
        _deliver(follower, "pop-0", ClientBatchRequest(transactions=(read,)))
        assert (metrics.hits, metrics.misses) == (0, 1)
        assert network.stats.by_type["ClientBatchRequest"] == 1  # the miss went to the leader
        grant = ReadLeaseGrant(cluster_id=0, view_ts=0, granted_at=0.0, duration=2.0)
        _deliver(follower, "c0/r2", grant)  # not from the leader: ignored
        _deliver(follower, "pop-0", ClientBatchRequest(transactions=(read,)))
        assert (metrics.hits, metrics.misses) == (0, 2)
        _deliver(follower, leader.process_id, grant)
        _deliver(follower, "pop-0", ClientBatchRequest(transactions=(read,)))
        assert (metrics.hits, metrics.misses) == (1, 2)
        simulator.run(until=0.1)
        assert sum(isinstance(p, ClientBatchResponse) for p in population.received) >= 1


# ---------------------------------------------------------------------- #
# Joiner state adoption (Alg. 10 kick-start, requester side)
# ---------------------------------------------------------------------- #
def _joiner():
    simulator, network, system, replicas = _system()
    joiner = HamavaReplica("j0", 0, system, network, simulator, mode=MODE_IDLE)
    joiner.mode = MODE_JOINING  # what a join request sets; its retries play no part here
    return joiner


def _curr_state(snapshot: str, leader: str) -> CurrState:
    members = tuple(sorted((*C0, "j0")))  # f = 1 in a cluster of five: 2f+1 = 3
    return CurrState(
        cluster_id=0,
        round_number=5,
        members=members,
        state_snapshot={"k": snapshot},
        system_view={0: members, 1: C1},
        leader=leader,
        leader_ts=0,
    )


def _deliver(replica: HamavaReplica, sender: str, message) -> None:
    replica.on_message(sender, Envelope(sender, message))


class TestCurrStateAdoption:
    def test_joiner_adopts_what_a_quorum_of_members_sent(self):
        joiner = _joiner()
        for sender in C0[:3]:
            _deliver(joiner, sender, _curr_state("honest", "c0/r0"))
        assert joiner.mode == MODE_ACTIVE
        assert joiner.kv.data == {"k": "honest"}
        assert joiner.round_number == 5 and joiner.leader == "c0/r0"

    def test_one_byzantine_member_cannot_complete_the_quorum_with_its_own_snapshot(self):
        joiner = _joiner()
        _deliver(joiner, "c0/r0", _curr_state("honest", "c0/r0"))
        _deliver(joiner, "c0/r1", _curr_state("honest", "c0/r0"))
        _deliver(joiner, "c0/r3", _curr_state("forged", "c0/r3"))  # f = 1 Byzantine member
        assert joiner.mode == MODE_JOINING
        _deliver(joiner, "c0/r2", _curr_state("honest", "c0/r0"))
        assert joiner.mode == MODE_ACTIVE
        assert joiner.kv.data == {"k": "honest"}
        assert joiner.leader == "c0/r0"

    def test_replicas_of_another_cluster_are_not_counted(self):
        joiner = _joiner()
        for sender in C1[:3]:
            _deliver(joiner, sender, _curr_state("forged", "c0/r3"))
        assert joiner.mode == MODE_JOINING
        assert joiner.kv.data == {}


# ---------------------------------------------------------------------- #
# RemoteLeaderChange: per-cluster watches
# ---------------------------------------------------------------------- #
class TestRemoteWatches:
    def test_start_round_arms_every_remote_cluster_and_makes_no_complaint_state(self):
        _simulator, _network, _system_config, replicas = _system()
        rlc = replicas["c0/r0"].rlc
        rlc._watch(1).complaint_number = 2
        rlc.start_round()
        assert rlc._watches == {}
        assert list(rlc._watch_pool._deadlines) == [1]

    def test_after_stop_all_a_cluster_never_complained_about_draws_no_complaint(self):
        simulator, network, _system_config, replicas = _system()
        rlc = replicas["c0/r0"].rlc
        rlc.has_operations_fn = lambda cluster_id: False
        rlc.start_round()
        rlc.stop_all()
        simulator.run(until=3 * rlc.timeout)
        assert network.stats.by_type["LComplaint"] == 0 and rlc._watches == {}
        # Left armed, the same watch complains once its timeout passes.
        rlc.start_round()
        simulator.run(until=simulator.now + 2 * rlc.timeout)
        assert network.stats.by_type["LComplaint"] > 0 and rlc._watches[1].complained
