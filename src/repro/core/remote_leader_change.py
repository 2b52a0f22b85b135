"""Heterogeneous remote leader change (paper Alg. 2).

Replicas watch a timer per *remote* cluster.  If a cluster's operations do
not arrive before the timer expires, the replica complains locally
(``LComplaint``); complaints are amplified at ``f_i + 1`` and accepted at
``2 f_i + 1`` signatures, at which point the first ``f_i + 1`` replicas of
the local cluster (the *sender set*) send a remote complaint (``RComplaint``)
carrying the local quorum of signatures to ``f_j + 1`` replicas of the remote
cluster.  The remote cluster validates the quorum against *its own view* of
the complaining cluster's membership and failure threshold — this is where
heterogeneity matters — broadcasts the complaint locally, and rotates its
leader.  Complaint numbers (``cn``/``rcn``) make each remote complaint
usable exactly once, defeating replay attacks.

The complaining cluster advances ``cn`` whenever its local quorum forms,
whether or not the ``RComplaint`` it then sends is delivered (a partition
drops it), and the complained cluster — possibly one round ahead, where it
reset ``rcn`` to 0 — cannot know how many were lost.  So the receiver accepts
any quorum-valid complaint numbered ``>= rcn`` and fast-forwards to
``number + 1``; requiring equality would reject every later complaint and
stall both clusters for good.  The signatures bind the number, so a forged
jump is as impossible as a forged complaint, and numbers below ``rcn`` (the
replays) are still refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.messages import ClusterComplaint, LComplaint, RComplaint
from repro.net.crypto import Signature
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.simulator import Simulator

#: ``ε`` of Alg. 2: for this long after a local leader change, further
#: accepted remote complaints do not rotate the leader again (seconds).
LEADER_CHANGE_EPSILON = 1.0


@dataclass
class _ClusterWatch:
    """Per-remote-cluster complaint state."""

    complaint_number: int = 0
    received_complaint_number: int = 0
    complaint_signatures: Dict[str, Signature] = field(default_factory=dict)
    complained: bool = False


class RemoteLeaderChange:
    """Alg. 2 at one replica.

    Args:
        owner: Replica id.
        cluster_id: The local cluster (``i`` in the paper).
        view_fn: Callable returning the replica's membership view
            ``{cluster_id: frozenset(members)}`` (used for cluster-existence
            and signer-membership checks).
        members_of_fn: Callable ``(cluster_id) -> sorted tuple of members``
            under the current view — the per-cluster form of the
            ``members_fn`` contract.  The replica supplies its per-view
            cached sorted views, so this module never re-sorts raw view
            sets (it used to, ~3 sorts per complaint message).
        faults_fn: Callable ``(cluster_id) -> f_j`` under the current view.
        round_fn: Callable returning the replica's current round.
        has_operations_fn: Callable ``(cluster_id) -> bool`` — whether the
            operations of that cluster have been received this round.
        network: Simulated network.
        simulator: Simulation kernel.
        timeout: ``Δ`` — the remote-cluster watch timeout.
        on_next_leader: Callback that advances the local leader election
            (``le request next-leader``).
        last_leader_change_fn: Callable returning the virtual time of the
            most recent local leader change (used for the
            ``LEADER_CHANGE_EPSILON`` guard).
    """

    MESSAGE_TYPES = (LComplaint, RComplaint, ClusterComplaint)

    def __init__(
        self,
        owner: str,
        cluster_id: int,
        view_fn: Callable[[], Dict[int, FrozenSet[str]]],
        members_of_fn: Callable[[int], Tuple[str, ...]],
        faults_fn: Callable[[int], int],
        round_fn: Callable[[], int],
        has_operations_fn: Callable[[int], bool],
        network: Network,
        simulator: Simulator,
        timeout: float,
        on_next_leader: Callable[[], None],
        last_leader_change_fn: Callable[[], float],
    ) -> None:
        self.owner = owner
        self.cluster_id = cluster_id
        self.view_fn = view_fn
        self.members_of_fn = members_of_fn
        self.faults_fn = faults_fn
        self.round_fn = round_fn
        self.has_operations_fn = has_operations_fn
        self.network = network
        self.simulator = simulator
        self.timeout = timeout
        self.on_next_leader = on_next_leader
        self.last_leader_change_fn = last_leader_change_fn
        self.apl = AuthenticatedPerfectLink(owner, network)
        self.abeb = AuthenticatedBestEffortBroadcast(
            owner, network, lambda: members_of_fn(cluster_id)
        )
        self._watches: Dict[int, _ClusterWatch] = {}
        #: One lazy-deadline pool (keyed by remote cluster id) replaces the
        #: per-cluster Timer objects re-armed every round — arming is a dict
        #: write instead of a schedule+cancel pair.
        self._watch_pool = simulator.deadline_pool(self._on_timeout, name=f"{owner}:remote")
        #: ``stop_timer(cluster_id)``: stop the watch of a cluster whose
        #: operations arrived (the pool's own ``disarm``, called directly).
        self.stop_timer: Callable[[int], None] = self._watch_pool.disarm
        #: Count of leader changes this replica triggered via remote complaints
        #: (exposed for tests and metrics).
        self.remote_changes_applied = 0

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _watch(self, cluster_id: int) -> _ClusterWatch:
        if cluster_id not in self._watches:
            self._watches[cluster_id] = _ClusterWatch()
        return self._watches[cluster_id]

    def local_members(self) -> Tuple[str, ...]:
        """Sorted members of the local cluster under the current view."""
        return self.members_of_fn(self.cluster_id)

    def remote_members(self, cluster_id: int) -> Tuple[str, ...]:
        """Sorted members of a remote cluster under the current view."""
        return self.members_of_fn(cluster_id)

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #
    def start_round(self) -> None:
        """Reset timers and complaint counters at the beginning of a round.

        A cluster's complaint state is only made by the first complaint
        about it, so a quiet round allocates none.
        """
        self._watches.clear()
        own = self.cluster_id
        self._watch_pool.arm_many(
            [cluster_id for cluster_id in self.view_fn() if cluster_id != own], self.timeout
        )

    def stop_all(self) -> None:
        """Stop every watch timer (round teardown)."""
        self._watch_pool.disarm_all()

    def set_timer_rate(self, rate: float) -> None:
        """Skew the watch timers (gray-failure clock-skew faults)."""
        self._watch_pool.rate = rate

    # ------------------------------------------------------------------ #
    # Complaint generation (Alg. 2, lines 7-20)
    # ------------------------------------------------------------------ #
    def _on_timeout(self, cluster_id: int) -> None:
        if self.has_operations_fn(cluster_id):
            return
        watch = self._watch(cluster_id)
        watch.complained = True
        self.abeb.broadcast(
            LComplaint(
                target_cluster=cluster_id,
                complaint_number=watch.complaint_number,
                round_number=self.round_fn(),
                origin_cluster=self.cluster_id,
            )
        )

    def _on_lcomplaint(self, sender: str, message: LComplaint, signature: Optional[Signature]) -> None:
        if message.origin_cluster != self.cluster_id:
            return
        if message.round_number != self.round_fn():
            return
        watch = self._watch(message.target_cluster)
        if message.complaint_number != watch.complaint_number:
            return
        if self.has_operations_fn(message.target_cluster):
            return
        if sender not in self.local_members():
            return
        if signature is not None:
            watch.complaint_signatures[sender] = signature
        local_faults = self.faults_fn(self.cluster_id)
        if len(watch.complaint_signatures) >= local_faults + 1 and not watch.complained:
            watch.complained = True
            self.abeb.broadcast(
                LComplaint(
                    target_cluster=message.target_cluster,
                    complaint_number=watch.complaint_number,
                    round_number=self.round_fn(),
                    origin_cluster=self.cluster_id,
                )
            )
        if len(watch.complaint_signatures) >= 2 * local_faults + 1:
            self._accept_local_complaint(message.target_cluster, watch)

    def _accept_local_complaint(self, target_cluster: int, watch: _ClusterWatch) -> None:
        local_members = self.local_members()
        local_faults = self.faults_fn(self.cluster_id)
        sender_set = local_members[: local_faults + 1]
        if self.owner in sender_set:
            remote_members = self.remote_members(target_cluster)
            remote_faults = self.faults_fn(target_cluster)
            targets = remote_members[: remote_faults + 1]
            complaint = RComplaint(
                complaint_number=watch.complaint_number,
                complaining_cluster=self.cluster_id,
                signatures=tuple(watch.complaint_signatures.values()),
                round_number=self.round_fn(),
            )
            for target in targets:
                self.apl.send(target, complaint)
        watch.complaint_number += 1
        watch.complaint_signatures = {}
        watch.complained = False
        self._watch_pool.arm(target_cluster, self.timeout)

    # ------------------------------------------------------------------ #
    # Complaint acceptance (Alg. 2, lines 21-26)
    # ------------------------------------------------------------------ #
    def _signatures_valid(self, message, expected_round: int) -> bool:
        """Check a (remote or local) complaint's quorum of LComplaint signatures."""
        complaining = message.complaining_cluster
        view = self.view_fn()
        if complaining not in view:
            return False
        members = view[complaining]
        threshold = 2 * self.faults_fn(complaining) + 1
        expected_digest = LComplaint(
            target_cluster=self.cluster_id,
            complaint_number=message.complaint_number,
            round_number=expected_round,
            origin_cluster=complaining,
        ).digest()
        valid_signers = set()
        for signature in message.signatures:
            if signature.signer not in members:
                continue
            if signature.digest != expected_digest:
                continue
            if not self.network.registry.verify(signature):
                continue
            valid_signers.add(signature.signer)
        return len(valid_signers) >= threshold

    def _round_acceptable(self, complained_round: int) -> bool:
        """Accept complaints for the current round or the immediately previous one.

        Clusters can be at most one round apart (each waits for all others
        before executing), so a complaint raised while the complaining
        cluster is still in round ``r`` may reach this cluster after it moved
        to ``r + 1``; such complaints are still actionable.
        """
        current = self.round_fn()
        return complained_round in (current, current - 1)

    def _on_rcomplaint(self, sender: str, message: RComplaint) -> None:
        if not self._round_acceptable(message.round_number):
            return
        watch = self._watch(message.complaining_cluster)
        if message.complaint_number < watch.received_complaint_number:
            return
        if not self._signatures_valid(message, message.round_number):
            return
        self.abeb.broadcast(
            ClusterComplaint(
                complaint_number=message.complaint_number,
                complaining_cluster=message.complaining_cluster,
                signatures=message.signatures,
                round_number=message.round_number,
            )
        )

    def _on_cluster_complaint(self, sender: str, message: ClusterComplaint) -> None:
        if not self._round_acceptable(message.round_number):
            return
        watch = self._watch(message.complaining_cluster)
        if message.complaint_number < watch.received_complaint_number:
            return
        if not self._signatures_valid(message, message.round_number):
            return
        watch.received_complaint_number = message.complaint_number + 1
        since_change = self.simulator.now - self.last_leader_change_fn()
        if since_change > LEADER_CHANGE_EPSILON:
            self.remote_changes_applied += 1
            self.on_next_leader()

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> bool:
        """Consume a remote-leader-change message; True if handled."""
        payload = envelope.payload
        if isinstance(payload, LComplaint):
            self._on_lcomplaint(sender, payload, envelope.signature)
            return True
        if isinstance(payload, RComplaint):
            self._on_rcomplaint(sender, payload)
            return True
        if isinstance(payload, ClusterComplaint):
            self._on_cluster_complaint(sender, payload)
            return True
        return False


__all__ = ["RemoteLeaderChange"]
