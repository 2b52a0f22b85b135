"""The three shapes every scheduled fault has (E4, E9).

A fault is *defined* in one place — its event class in
:mod:`repro.harness.scenario`, which validates its fields and installs
itself.  This module only knows how a fault reaches the simulation:

* :meth:`FaultInjector.on_replica` — an effect on one named replica;
* :meth:`FaultInjector.on_cluster` — an effect on victims picked from the
  cluster's *live* ``(members, leader)`` when the fault fires (the leader
  an earlier fault elected, a replica that joined since);
* :meth:`FaultInjector.drop_window` — a drop rule installed, and healed,
  once or duty-cycled.

A forked shard worker installs a replica or cluster fault only when it runs
the target's cluster, and a drop window once, on its own kernel at its own
virtual time.  :meth:`FaultInjector.cluster_cut` is the one drop rule
shared by the steady and the flapping partition.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.core.replica import MODE_ACTIVE, MODE_IDLE, HamavaReplica
from repro.harness.deployment import Deployment
from repro.sim.simulator import Simulator

#: What a fault does to one victim; the kernel is passed for scheduling heals.
Effect = Callable[[HamavaReplica, Simulator], None]
#: ``(sender, destination, payload) -> drop?``, evaluated on every send.
DropRule = Callable[[str, str, object], bool]


class FaultInjector:
    """Schedules fault effects and drop rules against one deployment."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    def cluster_state(self, cluster_id: int) -> Tuple[List[str], str]:
        """Current ``(members, leader)`` of a cluster, resolved live.

        Reads the lowest-id live member's view — the same source replicas
        use — so joiners count and departed replicas do not; falls back to
        the initial configuration while no member is up (pre-start).
        """
        deployment = self.deployment
        candidates = sorted(
            (
                replica
                for replica in deployment.replicas.values()
                if replica.cluster_id == cluster_id
                and replica.mode == MODE_ACTIVE
                and not replica.crashed
            ),
            key=lambda replica: replica.process_id,
        )
        if candidates:
            reporter = candidates[0]
            members = sorted(reporter.view.get(cluster_id, ()))
            if members:
                return members, reporter.leader
        members = sorted(deployment.system_config.members(cluster_id))
        return members, members[0]

    def on_replica(self, replica_id: str, at: float, label: str, effect: Effect) -> None:
        """Apply ``effect`` to one replica at virtual time ``at``.

        The owner map covers joiners and, in forked workers, replicas built
        by other workers: a worker that does not run the replica's cluster
        no-ops instead of silently dropping a fault it cannot see.  The
        target is resolved again when the fault fires; ids that name no
        known process raise in every worker.
        """
        deployment = self.deployment
        owner = deployment._owners.get(replica_id)
        if owner is not None and not deployment.is_local(owner):
            return  # another worker runs it and schedules the fault
        deployment.replica(replica_id)  # unknown (and client) ids raise here
        simulator = deployment.simulator

        def _fire() -> None:
            replica = deployment.replicas.get(replica_id)
            if replica is not None:
                effect(replica, simulator)

        simulator.schedule_at(at, _fire, label=label)

    def on_cluster(
        self,
        cluster_id: int,
        at: float,
        label: str,
        pick: Callable[[List[str], str], Sequence[str]],
        effect: Effect,
    ) -> None:
        """Apply ``effect`` to ``pick(members, leader)`` as they are at ``at``."""
        deployment = self.deployment
        if not deployment.is_local(cluster_id):
            return  # another worker runs the cluster
        simulator = deployment.simulator

        def _fire() -> None:
            for victim in pick(*self.cluster_state(cluster_id)):
                replica = deployment.replicas.get(victim)
                if replica is not None:
                    effect(replica, simulator)

        simulator.schedule_at(at, _fire, label=label)

    def cluster_cut(self, cluster_a: int, cluster_b: int, direction: str = "both") -> DropRule:
        """A rule dropping traffic between two clusters, optionally one way.

        Membership is resolved per envelope, not snapshotted: a replica that
        joins either cluster before — or during — the window is cut off like
        any seed member.
        """
        replicas = self.deployment.replicas

        def cluster_side(process_id: str):
            replica = replicas.get(process_id)
            if replica is None or replica.mode == MODE_IDLE:
                return None  # clients and not-yet-joined replicas sit outside
            return replica.cluster_id

        def rule(sender, destination, payload) -> bool:
            sender_side = cluster_side(sender)
            if direction != "b_to_a" and sender_side == cluster_a:
                return cluster_side(destination) == cluster_b
            if direction != "a_to_b" and sender_side == cluster_b:
                return cluster_side(destination) == cluster_a
            return False

        return rule

    def drop_window(
        self,
        rule: DropRule,
        at: float,
        duration: float,
        label: str,
        cycles: int = 1,
        period: float = 0.0,
    ) -> None:
        """Drop what ``rule`` matches for ``duration``, ``cycles`` times.

        Drop decisions are made sender-side, so each forked worker installs
        (and heals) the rule on its own kernel at its own virtual time.
        """
        network, simulator = self.deployment.network, self.deployment.simulator

        def _install() -> None:
            network.add_drop_rule(rule)
            simulator.schedule(duration, lambda: network.remove_drop_rule(rule), label="fault:heal")

        for cycle in range(cycles):
            simulator.schedule_at(at + cycle * period, _install, label=label)


__all__ = ["FaultInjector"]
