"""Tests for Byzantine Reliable Dissemination (Alg. 5/6)."""

from __future__ import annotations

import pytest

from repro.core.brd import (
    ByzantineReliableDissemination,
    CollectionEntry,
    CollectionProof,
    canonical_recs,
    ready_digest,
    submit_digest,
)
from repro.core.types import join_request, leave_request
from repro.net.crypto import KeyRegistry
from tests import helpers
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator


class BrdHost(Process):
    """A process hosting one BRD instance."""

    def __init__(self, process_id, simulator, network, members, leader, timeout=1.0):
        super().__init__(process_id, simulator)
        network.register(self, "us-west1")
        self.delivered = []
        self.complaints = []
        self.brd = ByzantineReliableDissemination(
            owner=process_id,
            cluster_id=0,
            round_number=1,
            members_fn=helpers.members_fn(members),
            faults_fn=lambda: (len(members) - 1) // 3,
            network=network,
            simulator=simulator,
            leader=leader,
            view_ts=0,
            timeout=timeout,
            on_deliver=lambda recs, proof, cert: self.delivered.append((recs, proof, cert)),
            on_complain=self.complaints.append,
        )

    def on_message(self, sender, envelope):
        self.brd.on_message(sender, envelope)


def build_brd_cluster(size=4, seed=4, timeout=1.0):
    simulator = Simulator(seed=seed)
    registry = KeyRegistry(seed=seed)
    network = Network(simulator, LatencyModel(), registry)
    members = [f"p{i}" for i in range(size)]
    leader = members[0]
    hosts = [BrdHost(m, simulator, network, members, leader, timeout) for m in members]
    return simulator, network, hosts


class TestHappyPath:
    def test_all_replicas_deliver_union_of_submissions(self):
        simulator, _, hosts = build_brd_cluster()
        requests = {
            "p0": (join_request("new1", 0),),
            "p1": (join_request("new1", 0), leave_request("p3", 0)),
            "p2": (),
            "p3": (join_request("new2", 0),),
        }
        for host in hosts:
            host.brd.broadcast(requests[host.process_id])
        simulator.run(until=5.0)
        expected_union = canonical_recs(
            [join_request("new1", 0), leave_request("p3", 0), join_request("new2", 0)]
        )
        for host in hosts:
            assert len(host.delivered) == 1
            recs, proof, cert = host.delivered[0]
            # Integrity: the delivered set is aggregated from a quorum, so it
            # contains every request that a quorum stored.  With all-correct
            # submitters the union is exact.
            assert set(recs) <= set(expected_union)
            assert join_request("new1", 0) in recs

    def test_uniformity_across_replicas(self):
        simulator, _, hosts = build_brd_cluster(size=7)
        for index, host in enumerate(hosts):
            host.brd.broadcast((join_request(f"n{index % 3}", 0),))
        simulator.run(until=5.0)
        delivered_sets = {repr(host.delivered[0][0]) for host in hosts}
        assert len(delivered_sets) == 1

    def test_no_duplication(self):
        simulator, _, hosts = build_brd_cluster()
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        assert all(len(host.delivered) == 1 for host in hosts)

    def test_ready_certificate_is_remotely_verifiable(self):
        simulator, network, hosts = build_brd_cluster()
        for host in hosts:
            host.brd.broadcast((join_request("new1", 0),))
        simulator.run(until=5.0)
        recs, _, cert = hosts[0].delivered[0]
        members = [h.process_id for h in hosts]
        assert network.registry.certificate_valid(
            cert, members, threshold=3, digest=ready_digest(0, 1, recs)
        )

    def test_empty_sets_still_deliver(self):
        simulator, _, hosts = build_brd_cluster()
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        assert all(host.delivered[0][0] == () for host in hosts)


class TestLeaderFailure:
    def test_silent_leader_triggers_complaints(self):
        simulator, _, hosts = build_brd_cluster(timeout=0.5)
        hosts[0].crash()  # the leader never aggregates
        for host in hosts[1:]:
            host.brd.broadcast((join_request("newX", 0),))
        simulator.run(until=2.0)
        assert all(host.complaints for host in hosts[1:])

    def test_leader_change_still_delivers_uniformly(self):
        simulator, _, hosts = build_brd_cluster(timeout=0.5)
        hosts[0].crash()
        for host in hosts[1:]:
            host.brd.broadcast((join_request("newX", 0),))

        def rotate():
            for host in hosts[1:]:
                host.brd.new_leader("p1", 1)

        simulator.schedule(1.0, rotate)
        simulator.run(until=6.0)
        delivered = [host.delivered[0][0] for host in hosts[1:]]
        assert all(d == delivered[0] for d in delivered)
        assert join_request("newX", 0) in delivered[0]

    def test_timer_stops_after_delivery(self):
        simulator, _, hosts = build_brd_cluster(timeout=0.8)
        for host in hosts:
            host.brd.broadcast(())
        simulator.run(until=5.0)
        assert all(not host.complaints for host in hosts)


class TestValidation:
    def test_collection_proof_requires_quorum(self):
        simulator, network, hosts = build_brd_cluster()
        brd = hosts[1].brd
        recs = (join_request("new1", 0),)
        entry = CollectionEntry(
            sender="p0",
            recs=recs,
            signature=network.registry.sign("p0", submit_digest(0, 1, recs)),
        )
        proof = CollectionProof(cluster_id=0, round_number=1, entries=(entry,))
        assert not brd.collection_valid(proof, recs)

    def test_collection_proof_rejects_dropped_requests(self):
        """A leader cannot claim an aggregate that omits a submitted request."""
        simulator, network, hosts = build_brd_cluster()
        brd = hosts[1].brd
        full = (join_request("new1", 0), join_request("new2", 0))
        entries = []
        for sender in ("p0", "p1", "p2"):
            entries.append(
                CollectionEntry(
                    sender=sender,
                    recs=full,
                    signature=network.registry.sign(sender, submit_digest(0, 1, full)),
                )
            )
        proof = CollectionProof(cluster_id=0, round_number=1, entries=tuple(entries))
        # Aggregate that drops new2 must be rejected even with a quorum of entries.
        assert not brd.collection_valid(proof, (join_request("new1", 0),))
        assert brd.collection_valid(proof, full)

    def test_collection_proof_rejects_forged_signatures(self):
        simulator, network, hosts = build_brd_cluster()
        brd = hosts[1].brd
        recs = (join_request("new1", 0),)
        entries = tuple(
            CollectionEntry(
                sender=sender,
                recs=recs,
                signature=network.registry.forge(sender, submit_digest(0, 1, recs)),
            )
            for sender in ("p0", "p1", "p2")
        )
        proof = CollectionProof(cluster_id=0, round_number=1, entries=entries)
        assert not brd.collection_valid(proof, recs)

    def test_canonical_recs_sorts_and_deduplicates(self):
        a = join_request("x", 0)
        b = leave_request("y", 0)
        assert canonical_recs([b, a, a]) == canonical_recs([a, b])
