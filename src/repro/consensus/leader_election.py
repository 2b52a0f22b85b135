"""Leader election module (paper Alg. 9).

Replicas complain about the current leader; once a replica sees ``f+1``
complaints for the current timestamp it amplifies (complains too), and once
it sees ``2f+1`` complaints it advances the timestamp and installs the next
leader in round-robin order over the sorted cluster membership.  The module
also accepts a direct ``next_leader`` request, which the remote-leader-change
protocol (Alg. 2) uses after validating a remote complaint that already
carries a remote quorum of signatures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Set

from repro.net.links import AuthenticatedBestEffortBroadcast
from repro.net.message import Envelope, Message
from repro.net.network import Network


@dataclass
class ElectionComplaint(Message):
    """Local complaint about the current leader at timestamp ``ts``."""

    cluster_id: int
    ts: int


class LeaderElection:
    """Round-robin Byzantine leader election for one cluster at one replica.

    Args:
        owner: Replica id this module runs at.
        cluster_id: Numeric id of the local cluster.
        members_fn: Callable returning the current cluster membership as a
            sorted tuple (the contract documented in
            :class:`repro.consensus.interface.TotalOrderBroadcast`).
        faults_fn: Callable returning the current failure threshold ``f``.
        network: The simulated network (used for the complaint broadcast).
        on_new_leader: Callback ``(leader_id, ts) -> None`` invoked whenever a
            new leader is installed locally.
    """

    MESSAGE_TYPES = (ElectionComplaint,)

    def __init__(
        self,
        owner: str,
        cluster_id: int,
        members_fn: Callable[[], Sequence[str]],
        faults_fn: Callable[[], int],
        network: Network,
        on_new_leader: Callable[[str, int], None],
    ) -> None:
        self.owner = owner
        self.cluster_id = cluster_id
        self.members_fn = members_fn
        self.faults_fn = faults_fn
        self.network = network
        self.on_new_leader = on_new_leader
        self.abeb = AuthenticatedBestEffortBroadcast(owner, network, members_fn)
        self.ts = 0
        self._complainers: Set[str] = set()
        self._complained = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def members(self) -> Sequence[str]:
        """Sorted current membership, the round-robin order for leaders.

        No defensive re-sort: the ``members_fn`` contract (see
        :class:`repro.consensus.interface.TotalOrderBroadcast`) guarantees a
        sorted tuple, precisely so that this order — which decides leader
        rotation — is stable without paying a per-complaint sort.
        """
        return self.members_fn()

    # ------------------------------------------------------------------ #
    # Requests (paper Alg. 9, lines 11-29)
    # ------------------------------------------------------------------ #
    def complain(self, leader: Optional[str] = None) -> None:
        """Request a complaint about the current leader (idempotent per ts)."""
        if not self._complained:
            self._send_complain()

    def next_leader(self) -> None:
        """Advance to the next leader directly (used by remote complaints)."""
        self._change()

    def _send_complain(self) -> None:
        self._complained = True
        self._complainers.add(self.owner)
        self.abeb.broadcast(ElectionComplaint(cluster_id=self.cluster_id, ts=self.ts))
        self._maybe_change()

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> bool:
        """Consume an :class:`ElectionComplaint`; returns True if handled."""
        payload = envelope.payload
        if not isinstance(payload, ElectionComplaint):
            return False
        if payload.cluster_id != self.cluster_id:
            return False
        if payload.ts != self.ts:
            return True
        self._complainers.add(sender)
        faults = self.faults_fn()
        if len(self._complainers) >= faults + 1 and not self._complained:
            self._send_complain()
        self._maybe_change()
        return True

    def _maybe_change(self) -> None:
        if len(self._complainers) >= 2 * self.faults_fn() + 1:
            self._change()

    def _change(self) -> None:
        self.ts += 1
        self._complainers = set()
        self._complained = False
        members = self.members()
        leader = members[self.ts % len(members)]
        self.on_new_leader(leader, self.ts)


__all__ = ["ElectionComplaint", "LeaderElection"]
