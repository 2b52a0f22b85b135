"""Reconfiguration requests (paper Alg. 3): both sides of a join or leave.

When a process wants to join (or a member wants to leave) it broadcasts
``RequestJoin`` / ``RequestLeave`` in the target cluster; every correct
replica stores the request in its ``recs`` set and acknowledges
(:class:`ReconfigurationCollector`).  The requester (:class:`Requester`,
tracking acks with :class:`RequestTracker`) keeps re-broadcasting until a
quorum acknowledges, at which point the request can no longer be censored:
any quorum the BRD leader later aggregates from intersects the storing
quorum in a correct replica.  A joiner then waits for ``2f+1`` members of
its new cluster to send it the same state (Alg. 10's kick-start) and adopts
it; a member left behind the cluster's stable watermark adopts a state the
same way, from ``f+1`` members of its own view.

The dissemination half (Alg. 4) is a thin wrapper around BRD in the
replica's :class:`~repro.core.replica.LocalOrdering`: each round, the
replica submits its collected set to a per-round
:class:`~repro.core.brd.ByzantineReliableDissemination` instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.config import failure_threshold
from repro.core.messages import CurrState, ReconfigAck, RequestJoin, RequestLeave
from repro.core.types import ReconfigRequest, join_request, leave_request
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import Envelope
from repro.net.network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.core.replica import HamavaReplica

#: Replica lifecycle modes.
MODE_ACTIVE = "active"
MODE_JOINING = "joining"
MODE_IDLE = "idle"
MODE_LEFT = "left"


class ReconfigurationCollector:
    """Stores pending reconfiguration requests at one replica.

    Args:
        owner: Replica id.
        cluster_id: The local cluster.
        network: Simulated network (used to send acknowledgements).
        members_fn: Callable returning current local membership as a sorted
            tuple (included in the acknowledgement so requesters can detect
            configuration skew).
        round_fn: Callable returning the current round.
    """

    MESSAGE_TYPES = (RequestJoin, RequestLeave)

    def __init__(
        self,
        owner: str,
        cluster_id: int,
        network: Network,
        members_fn: Callable[[], List[str]],
        round_fn: Callable[[], int],
    ) -> None:
        self.owner = owner
        self.cluster_id = cluster_id
        self.network = network
        self.members_fn = members_fn
        self.round_fn = round_fn
        self.apl = AuthenticatedPerfectLink(owner, network)
        self._recs: Set[ReconfigRequest] = set()
        #: Requests already applied by execution; never re-collected.
        self._applied: Set[ReconfigRequest] = set()

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def current_recs(self) -> Tuple[ReconfigRequest, ...]:
        """The set of pending (not yet applied) reconfiguration requests."""
        return tuple(sorted(self._recs))

    # ------------------------------------------------------------------ #
    # Local additions
    # ------------------------------------------------------------------ #
    def add(self, request: ReconfigRequest) -> None:
        """Store a request locally (used for the replica's own leave request)."""
        if request not in self._applied:
            self._recs.add(request)

    def mark_applied(self, requests: Iterable[ReconfigRequest]) -> None:
        """Drop executed requests from the pending set (Alg. 10, line 36)."""
        for request in requests:
            self._applied.add(request)
            self._recs.discard(request)

    # ------------------------------------------------------------------ #
    # Message handling (Alg. 3, lines 16-21)
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> bool:
        """Consume a join/leave request addressed to this cluster."""
        payload = envelope.payload
        if not isinstance(payload, self.MESSAGE_TYPES):
            return False
        if payload.cluster_id == self.cluster_id:
            if isinstance(payload, RequestJoin):
                self.add(join_request(sender, self.cluster_id, payload.region))
            else:
                self.add(leave_request(sender, self.cluster_id))
            self.ack(sender)
        return True

    def ack(self, requester: str) -> None:
        """Acknowledge a stored request to its requester."""
        self.apl.send(
            requester,
            ReconfigAck(
                cluster_id=self.cluster_id,
                round_number=self.round_fn(),
                members=tuple(self.members_fn()),
            ),
        )


class RequestTracker:
    """Requester-side state of Alg. 3: retry until a quorum acknowledges.

    Used by joining processes and by leaving replicas.  The owner process
    drives it: it calls :meth:`record_ack` on every acknowledgement and
    :meth:`should_retry` from its retry timer.
    """

    def __init__(self, quorum_fn: Callable[[], int]) -> None:
        self.quorum_fn = quorum_fn
        self._ackers: Set[str] = set()
        self.satisfied = False

    def record_ack(self, sender: str) -> bool:
        """Record an acknowledgement; returns True once a quorum acked."""
        self._ackers.add(sender)
        if len(self._ackers) >= self.quorum_fn():
            self.satisfied = True
        return self.satisfied

    def should_retry(self) -> bool:
        """Whether the requester should re-broadcast its request."""
        return not self.satisfied


class Requester:
    """Alg. 3's requester side at one replica: join or leave, then adopt a state.

    A joining process broadcasts ``RequestJoin`` to the target cluster and
    re-broadcasts with exponential backoff until ``2f+1`` members
    acknowledge.  Its join completes when ``2f+1`` members of the new
    configuration have sent it the same ``CurrState``: a vote counts only
    from a sender the message itself names as a member, and votes are kept
    per message content, so up to ``f`` Byzantine members — or any number
    of outsiders — cannot get a forged snapshot or leader adopted.
    """

    def __init__(self, replica: "HamavaReplica") -> None:
        self.replica = replica
        self.join_tracker: Optional[RequestTracker] = None
        self.join_retry_timer = replica.new_timer(1.0, self._retry_join, "join-retry")
        #: ``CurrState`` digest -> the members that sent exactly that state.
        self._state_votes: Dict[str, Set[str]] = {}

    def request_join(self, target_cluster: int) -> None:
        """Ask to join a cluster (used by freshly created replicas)."""
        replica = self.replica
        replica.cluster_id = target_cluster
        replica.mode = MODE_JOINING
        self.join_tracker = RequestTracker(lambda: 2 * replica.faults(replica.cluster_id) + 1)
        self._broadcast_join()
        self.join_retry_timer.start(1.0)

    def _broadcast_join(self) -> None:
        replica = self.replica
        region = replica.network.latency_model.region_of(replica.process_id)
        message = RequestJoin(
            cluster_id=replica.cluster_id, round_number=replica.round_number, region=region
        )
        for member in replica.members(replica.cluster_id):
            replica.apl.send(member, message)

    def _retry_join(self) -> None:
        if self.replica.mode != MODE_JOINING:
            return
        if self.join_tracker is not None and self.join_tracker.should_retry():
            self._broadcast_join()
        self.join_retry_timer.start(min(self.join_retry_timer.duration * 2, 16.0))

    def request_leave(self) -> None:
        """Ask to leave the local cluster."""
        replica = self.replica
        replica.collector.add(leave_request(replica.process_id, replica.cluster_id))
        message = RequestLeave(cluster_id=replica.cluster_id, round_number=replica.round_number)
        for member in replica.local_members():
            if member != replica.process_id:
                replica.apl.send(member, message)

    def on_ack(self, sender: str, message: ReconfigAck) -> None:
        if self.replica.mode == MODE_JOINING and self.join_tracker is not None:
            self.join_tracker.record_ack(sender)

    def on_curr_state(self, sender: str, message: CurrState) -> None:
        """Count one member's state transfer; adopt a state enough members sent.

        A joiner cannot know its new cluster yet, so it counts senders the
        message names as members and needs ``2f+1`` of them.  An active
        replica that fell behind what its peers keep knows its cluster: it
        counts members of its own view and needs ``f+1``, since one of them
        is correct and a correct member's state at a round boundary is every
        correct one's.
        """
        replica = self.replica
        if replica.mode == MODE_JOINING:
            members = message.members
            needed = 2 * failure_threshold(len(members)) + 1
        elif replica.mode == MODE_ACTIVE and message.round_number > replica.round_number:
            members = replica.local_members()
            needed = replica.local_faults() + 1
        else:
            return
        if sender not in members:
            return
        votes = self._state_votes.setdefault(message.digest(), set())
        votes.add(sender)
        if len(votes) < needed:
            return
        self._state_votes.clear()
        round_number = message.round_number
        replica.kv.restore(message.state_snapshot, round_number)
        shared_membership = replica.system_config.shared_membership
        replica.view = {cid: shared_membership(members) for cid, members in message.system_view.items()}
        replica.invalidate_view_caches()
        replica.round_number = round_number
        if replica.mode == MODE_JOINING:
            replica.mode = MODE_ACTIVE
            replica.joined_at = replica.simulator.now
            self.join_retry_timer.stop()
            if replica.metrics is not None:
                replica.metrics.record_join_completed(
                    replica.process_id, replica.cluster_id, replica.simulator.now
                )
            replica.front.arm_lease_tick()
        # Adopt the sending quorum's leader so votes and submissions go to the
        # replica the rest of the cluster actually follows.
        replica.leader_ts = replica.le.ts = message.leader_ts
        members = replica.local_members()
        replica.leader = message.leader or members[replica.leader_ts % len(members)]
        tob = replica.ordering.tob
        tob.leader = replica.leader
        tob.view_ts = replica.leader_ts
        # Nothing below the adopted round will execute here any more.
        replica.ordering.retire(round_number - 1)
        # A round that just executed has its start_round pending, which
        # opens the adopted round; opening it twice would lose its state.
        if replica.round_state.stage2_done_at is None:
            replica.start_round()


__all__ = ["MODE_ACTIVE", "MODE_IDLE", "MODE_JOINING", "MODE_LEFT", "ReconfigurationCollector",
           "RequestTracker", "Requester"]
