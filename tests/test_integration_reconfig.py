"""Reconfiguration end to end: joins, leaves, uniformity, kick-start."""

from __future__ import annotations

import pytest

from helpers import FAST_TIMEOUTS, small_deployment
from repro.core.config import failure_threshold
from repro.core.replica import MODE_ACTIVE, MODE_LEFT
from repro.harness.builder import Scenario


def assert_views_shared(replicas, cluster_ids):
    """Replicas hold one immutable member set and one sorted tuple per
    cluster between them, not a copy each."""
    first = replicas[0]
    for cluster_id in cluster_ids:
        for replica in replicas[1:]:
            assert replica.view[cluster_id] is first.view[cluster_id]
            assert replica.members(cluster_id) is first.members(cluster_id)


class TestJoin:
    def test_join_completes_and_membership_updates_everywhere(self):
        deployment = small_deployment(seed=61)
        joiner = deployment.add_joiner(0, at_time=0.6, replica_id="newbie")
        deployment.run(duration=4.0)
        assert joiner.mode == MODE_ACTIVE
        assert joiner.joined_at is not None
        for replica in deployment.replicas.values():
            if replica.mode == MODE_ACTIVE:
                assert "newbie" in replica.view[0], f"{replica.process_id} missed the join"

    def test_joined_replica_has_transferred_state_and_participates(self):
        deployment = small_deployment(seed=62)
        joiner = deployment.add_joiner(0, at_time=0.6, replica_id="newbie")
        deployment.run(duration=4.0)
        assert joiner.execution.executed_rounds > 0
        # The joiner's round number tracks the cluster within one round.
        reference = deployment.replicas["c0/r0"]
        assert abs(joiner.round_number - reference.round_number) <= 1

    def test_failure_threshold_recomputed_after_joins(self):
        deployment = small_deployment(seed=63)
        for index in range(3):
            deployment.add_joiner(0, at_time=0.5 + 0.1 * index, replica_id=f"new{index}")
        deployment.run(duration=5.0)
        reference = deployment.replicas["c1/r0"]
        size = len(reference.view[0])
        assert size == 7
        assert reference.faults(0) == failure_threshold(7) == 2

    def test_remote_cluster_learns_about_join(self):
        deployment = small_deployment(seed=64)
        deployment.add_joiner(1, at_time=0.6, replica_id="remote-new")
        deployment.run(duration=4.0)
        observer = deployment.replicas["c0/r0"]
        assert "remote-new" in observer.view[1]


class TestLeave:
    def test_leave_removes_member_everywhere(self):
        deployment = small_deployment(clusters=((4, "us-west1"), (7, "us-west1")), seed=65)
        deployment.schedule_leave("c1/r6", at_time=0.6)
        deployment.run(duration=4.0)
        leaver = deployment.replicas["c1/r6"]
        assert leaver.mode == MODE_LEFT
        assert leaver.left_at is not None
        for replica_id in ("c0/r0", "c1/r0"):
            assert "c1/r6" not in deployment.replicas[replica_id].view[1]

    def test_cluster_keeps_operating_after_leave(self):
        deployment = small_deployment(clusters=((4, "us-west1"), (7, "us-west1")), seed=66)
        deployment.schedule_leave("c1/r6", at_time=0.6)
        metrics = deployment.run(duration=4.0)
        late_writes = [r for r in metrics.transactions if r.completed_at > 3.0 and r.op == "write"]
        assert late_writes

    def test_join_and_leave_in_same_window(self):
        deployment = small_deployment(clusters=((7, "us-west1"), (7, "us-west1")), seed=67)
        deployment.add_joiner(0, at_time=0.6, replica_id="n0")
        deployment.schedule_leave("c0/r6", at_time=0.8)
        deployment.run(duration=5.0)
        observer = deployment.replicas["c1/r0"]
        assert "n0" in observer.view[0]
        assert "c0/r6" not in observer.view[0]
        # The joiner adopted its view from a state transfer, the others
        # applied both changes: all still hold one set and tuple per cluster.
        active = [r for r in deployment.replicas.values() if r.mode == MODE_ACTIVE]
        assert deployment.replicas["n0"] in active
        assert_views_shared(active, (0, 1))


class TestUniformity:
    def test_all_replicas_apply_same_reconfigs_in_same_round(self):
        deployment = small_deployment(seed=68)
        deployment.add_joiner(0, at_time=0.6, replica_id="newbie")
        deployment.run(duration=4.0)
        applications = {}
        for replica in deployment.replicas.values():
            for round_number, request in replica.execution.reconfigs_applied:
                if request.process_id == "newbie":
                    applications.setdefault(replica.process_id, round_number)
        # Every active replica applied the join, and all in the same round.
        assert len(applications) >= 8
        assert len(set(applications.values())) == 1

    def test_views_remain_consistent_across_clusters(self):
        deployment = small_deployment(seed=69)
        deployment.add_joiner(0, at_time=0.5, replica_id="a")
        deployment.add_joiner(1, at_time=0.7, replica_id="b")
        deployment.run(duration=5.0)
        views = [
            (tuple(sorted(r.view[0])), tuple(sorted(r.view[1])))
            for r in deployment.replicas.values()
            if r.mode == MODE_ACTIVE
        ]
        assert len(set(views)) == 1, "active replicas disagree on membership"


class TestSharedMembership:
    def test_a_fresh_build_shares_every_view(self):
        deployment = Scenario("shared-views").clusters(*[4] * 8).threads(4).build()
        replicas = list(deployment.replicas.values())
        assert len(replicas) == 32
        assert type(replicas[0].view[0]) is frozenset
        assert_views_shared(replicas, range(8))


class TestSingleWorkflowBaseline:
    def test_single_workflow_also_applies_reconfigs(self):
        deployment = (
            Scenario("single_workflow").preset("single_workflow").clusters(4, 4).seed(70)
            .threads(4).config(**FAST_TIMEOUTS).build()
        )
        joiner = deployment.add_joiner(0, at_time=0.6, replica_id="sw-new")
        deployment.run(duration=4.0)
        observer = deployment.replicas["c1/r0"]
        assert "sw-new" in observer.view[0]
