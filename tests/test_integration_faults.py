"""Fault tolerance: crashes, leader failure, Byzantine leaders, attacks,
and the E9 chaos pack."""

from __future__ import annotations

import pytest

from helpers import small_deployment
from repro.harness.experiments import E9_CASES, run_e9
from repro.harness.scenario import ByzantineEvent, CrashEvent


class TestCrashFaults:
    def test_f_non_leader_crashes_tolerated(self):
        deployment = small_deployment(
            clusters=((4, "us-west1"), (4, "us-west1")),
            seed=41,
            client_threads=8,
            schedule=[
                CrashEvent(at=0.5, cluster=0, scope="non_leaders"),
                CrashEvent(at=0.5, cluster=1, scope="non_leaders"),
            ],
        )
        metrics = deployment.run(duration=5.0, warmup=0.0)
        victims = [r.process_id for r in deployment.replicas.values() if r.crashed]
        assert victims == ["c0/r3", "c1/r3"]  # f = 1 per cluster, never the leader
        # The system keeps committing after the crashes (clients need a retry
        # period to fail over away from the crashed replicas).
        late = [r for r in metrics.transactions if r.completed_at > 3.5 and r.op == "write"]
        assert late, "no writes committed after non-leader crashes"

    def test_leader_crash_recovers_via_local_leader_change(self):
        deployment = small_deployment(
            seed=42, schedule=[CrashEvent(at=0.8, cluster=0, scope="leader")]
        )
        old_leader = deployment.leader_of(0).process_id
        metrics = deployment.run(duration=6.0, warmup=0.0)
        assert [r.process_id for r in deployment.replicas.values() if r.crashed] == [old_leader]
        survivor = next(
            r for r in deployment.cluster_replicas(0) if r.process_id != old_leader
        )
        assert survivor.leader != old_leader
        assert survivor.leader_ts >= 1
        late = [r for r in metrics.transactions if r.completed_at > 4.0 and r.op == "write"]
        assert late, "cluster did not recover after leader crash"

    def test_more_than_f_crashes_stalls_cluster(self):
        # Crash 2 of 4 replicas (f = 1): quorum of 3 is no longer available.
        deployment = small_deployment(
            seed=43,
            schedule=[CrashEvent(at=0.5, replica="c0/r2"), CrashEvent(at=0.5, replica="c0/r3")],
        )
        deployment.run(duration=3.0)
        stalled_rounds = deployment.replicas["c0/r0"].execution.executed_rounds
        healthy_deployment = small_deployment(seed=43)
        healthy_deployment.run(duration=3.0)
        healthy_rounds = healthy_deployment.replicas["c0/r0"].execution.executed_rounds
        # Beyond-f crashes lose the quorum: the cluster stops committing new
        # rounds shortly after the fault, far short of the healthy run.
        assert stalled_rounds < healthy_rounds / 2


class TestByzantineLeader:
    def test_silent_leader_triggers_remote_leader_change(self):
        deployment = small_deployment(seed=44, schedule=[ByzantineEvent(cluster=0, at=0.8)])
        bad = deployment.leader_of(0).process_id
        metrics = deployment.run(duration=8.0, warmup=0.0)
        assert deployment.replicas[bad].byzantine.silent_inter_after == 0.8
        replica = deployment.replicas["c0/r1"]
        assert replica.leader != bad, "Byzantine leader was never replaced"
        assert replica.leader_ts >= 1
        # Progress resumes after the remote leader change.
        late = [r for r in metrics.transactions if r.completed_at > 6.0 and r.op == "write"]
        assert late, "no writes after the remote leader change"

    def test_remote_cluster_detects_fault_not_local(self):
        deployment = small_deployment(seed=45, schedule=[ByzantineEvent(cluster=0, at=0.8)])
        deployment.run(duration=8.0)
        # The change was requested through the remote-complaint path at
        # cluster 0's replicas (next-leader), so their rlc counters moved.
        changed = [
            r.rlc.remote_changes_applied for r in deployment.cluster_replicas(0)
            if r.process_id != deployment.replicas["c0/r1"].leader
        ]
        assert any(count >= 1 for count in changed)


class TestByzantineInterTargets:
    """Stage 2 with a faulty Inter target or a remote leader that skips one.

    2×4 ``hotstuff``, 0.5-s timeouts, 4 s.  ``c0/r0`` and ``c0/r1`` are
    cluster 0's Inter targets for cluster 1's bundles.
    """

    @staticmethod
    def _run(attack=None):
        from repro.harness.builder import Scenario

        spec = Scenario("inter-targets").clusters(4, 4).engine("hotstuff").timeouts(0.5)
        spec = spec.duration(4.0).seeds(3).spec()
        deployment = spec.build()
        if attack is not None:
            attack(deployment)
        metrics = deployment.run(duration=spec.duration, warmup=spec.warmup)
        rounds = {r.process_id: r.round_number for r in deployment.replicas.values()}
        return deployment, len(metrics.transactions), rounds

    @staticmethod
    def _selective_first_target(deployment):
        """``c0/r0`` shares each remote bundle with the other target only."""
        from repro.core.messages import Inter, LocalShare

        byzantine = deployment.replicas["c0/r0"]

        def on_inter(sender, message):
            if not byzantine.sharing.bundle_valid(message.cluster_id, message.round_number, message.bundle):
                return
            share = LocalShare(
                round_number=message.round_number, cluster_id=message.cluster_id, bundle=message.bundle
            )
            byzantine.apl.send_many(byzantine.local_members()[: byzantine.local_faults() + 1], share)

        byzantine._handler_table[Inter] = (True, False, on_inter)

    @staticmethod
    def _skip_second_target(deployment):
        """Cluster 1's leader never sends its Inter to ``c0/r1``."""
        from repro.core.messages import Inter

        deployment.network.add_drop_rule(
            lambda sender, destination, payload: type(payload) is Inter and destination == "c0/r1"
        )

    def test_a_selective_first_target_costs_the_rest_one_timeout_per_round(self):
        # The starved members complain locally and a holder answers with the
        # bundle; without the answer the cluster froze at round 2.
        deployment, operations, rounds = self._run(self._selective_first_target)
        assert min(rounds.values()) >= 6, rounds
        assert operations > 1000
        assert all(r.rlc.remote_changes_applied == 0 for r in deployment.replicas.values())

    def test_a_target_the_remote_leader_skipped_costs_nothing(self):
        _, fault_free_operations, fault_free_rounds = self._run()
        deployment, operations, rounds = self._run(self._skip_second_target)
        assert operations >= 0.99 * fault_free_operations
        assert min(rounds.values()) == min(fault_free_rounds.values())
        assert deployment.network.stats.by_type["ShareRequest"] >= min(rounds.values()) - 1
        assert sum(r.sharing.fallback_broadcasts for r in deployment.replicas.values()) == 0


class TestLostRemoteComplaints:
    """A complaining cluster numbers its complaints whether or not they are
    delivered; the complained cluster must not insist on seeing every one."""

    @staticmethod
    def _complaint(deployment, receiver, number, signers=("c1/r0", "c1/r1", "c1/r2")):
        from repro.core.messages import ClusterComplaint, LComplaint

        digest = LComplaint(
            target_cluster=0,
            complaint_number=number,
            round_number=receiver.round_number,
            origin_cluster=1,
        ).digest()
        return ClusterComplaint(
            complaint_number=number,
            complaining_cluster=1,
            signatures=tuple(deployment.registry.sign(signer, digest) for signer in signers),
            round_number=receiver.round_number,
        )

    def test_a_later_quorum_valid_complaint_is_accepted_and_replays_refused(self):
        deployment = small_deployment(seed=48)
        deployment.run(duration=1.5)
        receiver = deployment.replicas["c0/r1"]
        rlc = receiver.rlc
        assert rlc._watch(1).received_complaint_number == 0
        # Complaints 0..2 were lost to a partition; number 3 arrives first.
        rlc._on_cluster_complaint("c0/r0", self._complaint(deployment, receiver, 3))
        assert rlc._watch(1).received_complaint_number == 4
        assert rlc.remote_changes_applied == 1
        for replayed in (3, 2, 0):
            rlc._on_cluster_complaint("c0/r0", self._complaint(deployment, receiver, replayed))
        assert (rlc._watch(1).received_complaint_number, rlc.remote_changes_applied) == (4, 1)
        # The number is bound by the signatures: a quorum over number 3
        # cannot be relabelled as number 9, and f signers are not a quorum.
        relabelled = self._complaint(deployment, receiver, 3)
        relabelled.complaint_number = 9
        rlc._on_cluster_complaint("c0/r0", relabelled)
        rlc._on_cluster_complaint(
            "c0/r0", self._complaint(deployment, receiver, 9, signers=("c1/r0", "c1/r1"))
        )
        assert rlc._watch(1).received_complaint_number == 4

    @pytest.mark.parametrize("duration", [10.0, 16.0])
    def test_flapping_partition_recovers_whatever_the_run_length(self, duration):
        """At 10 s the last flap ends with the complaining cluster several
        complaint numbers ahead of a complained cluster that has moved on a
        round; with the equality check goodput stayed at zero for good.  The
        6 s run is the chaos pack's own (``TestChaosPack``)."""
        row = run_e9("flapping_partition", duration=duration)
        assert row["passed"], row["assertions"]
        assert row["goodput_after"] > 0.5 * row["goodput_before"]


class TestChaosPack:
    @pytest.mark.parametrize("name", list(E9_CASES))
    def test_preset_assertions_and_forked_parity_hold(self, name):
        # 6 s is the smoke duration every preset's assertions were pinned
        # at (also run_e9's default, spelled out so the pin is visible here).
        row = run_e9(name, duration=6.0)
        assert row["passed"], row["assertions"]


class TestForgeryResistance:
    def test_stale_threshold_attack_rejected(self):
        """§II-B attack: a certificate with too few signatures must be rejected
        by a replica whose view says the cluster is larger."""
        deployment = small_deployment(clusters=((4, "us-west1"), (7, "us-west1")), seed=46)
        deployment.run(duration=0.5)
        receiver = deployment.replicas["c0/r0"]
        # Build a bundle for cluster 1 whose certificate carries only
        # 2*f+1 = 3 signatures computed against a *stale* (4-member) view,
        # while the receiver knows cluster 1 has 7 members (threshold 5).
        from repro.consensus.interface import commit_digest
        from repro.core.types import OperationsBundle
        from repro.net.crypto import Certificate

        transactions = []
        digest = commit_digest(1, receiver.round_number, transactions)
        forged_cert = Certificate(digest)
        for signer in ["c1/r0", "c1/r1", "c1/r2"]:
            forged_cert.add(deployment.registry.sign(signer, digest))
        bundle = OperationsBundle(
            cluster_id=1,
            round_number=receiver.round_number,
            transactions=transactions,
            reconfigs=(),
            txn_certificate=forged_cert,
        )
        assert not receiver.sharing.bundle_valid(1, receiver.round_number, bundle)

    def test_valid_bundle_accepted(self):
        deployment = small_deployment(seed=47)
        deployment.run(duration=1.5)
        replica = deployment.replicas["c0/r0"]
        # Whatever cluster 1 actually shipped must have validated.
        assert replica.execution.executed_rounds > 0
