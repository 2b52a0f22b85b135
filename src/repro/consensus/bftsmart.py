"""A BFT-SMaRt-like local ordering engine (AVA-BFTSMART's substrate).

BFT-SMaRt's ordering core (MOD-SMaRt/VP-Consensus) is PBFT-shaped: the leader
broadcasts a proposal, then replicas run two all-to-all voting phases (WRITE
and ACCEPT).  Per decision the message complexity is quadratic in the cluster
size — the ``O(2zn²)`` row of the paper's Table I — which is why the paper
observes lower throughput for AVA-BFTSMART than AVA-HOTSTUFF at equal sizes.

ACCEPT votes sign the cluster/round/batch commit digest, so every replica can
assemble the commit certificate locally and stage 2 can forward it to remote
clusters for verification against ``C_i``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.consensus.interface import Decision, TotalOrderBroadcast
from repro.net.crypto import Certificate, Signature
from repro.net.message import Message, payload_digest


@dataclass
class BsPropose(Message):
    """Leader's proposal (PBFT pre-prepare) carrying the batch."""

    cluster_id: int
    sequence: int
    view: int
    value: Any

    def estimated_size(self) -> int:
        if isinstance(self.value, (list, tuple)):
            return 256 + 1024 * len(self.value)
        return 1280

    def verification_cost(self) -> int:
        return 1


@dataclass
class BsWrite(Message):
    """First all-to-all phase vote (PBFT prepare / BFT-SMaRt WRITE)."""

    cluster_id: int
    sequence: int
    view: int
    value_digest: str

    def verification_cost(self) -> int:
        return 2


@dataclass
class BsAccept(Message):
    """Second all-to-all phase vote (PBFT commit / BFT-SMaRt ACCEPT).

    Carries the sender's signature over the commit digest so receivers can
    assemble the remotely-verifiable commit certificate.  In the clustered
    setting every replica must verify these individual signatures (the
    certificate is later shipped to remote clusters), so the receiver-side
    cost is higher than HotStuff's, where votes flow only to the leader and
    replicas check a single aggregated quorum certificate.  This asymmetry is
    what makes the all-to-all phases expensive at larger cluster sizes.
    """

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    commit_signature: Optional[Signature] = None
    #: Opaque piggybacked BRD submission (``round_marker_fn``); all-to-all,
    #: so every replica sees every marker, but only the leader ingests them.
    round_marker: Any = None

    def verification_cost(self) -> int:
        return 4 if self.round_marker is None else 5


@dataclass
class BsViewState(Message):
    """View-change report: the value (if any) a replica saw proposed."""

    cluster_id: int
    sequence: int
    view: int
    value: Any = None

    def estimated_size(self) -> int:
        if isinstance(self.value, (list, tuple)):
            return 256 + 1024 * len(self.value)
        return 512


@dataclass
class BsDecide(Message):
    """Catch-up reply: a decided value plus its commit certificate.

    Sent point-to-point by a leader whose view-state inbox reports a
    sequence it already decided — the reporter missed the accept quorum
    across a view change.  Self-certifying: the receiver checks the
    certificate against the carried value's commit digest.
    """

    cluster_id: int
    sequence: int
    view: int
    value: Any = None
    certificate: Optional[Certificate] = None

    def estimated_size(self) -> int:
        size = 256 + (96 * len(self.certificate) if self.certificate else 0)
        if isinstance(self.value, (list, tuple)):
            size += 1024 * len(self.value)
        return size

    def verification_cost(self) -> int:
        return max(1, len(self.certificate) if self.certificate else 0)


class BftSmartEngine(TotalOrderBroadcast):
    """PBFT-style total-order broadcast with all-to-all voting phases."""

    HANDLERS = {
        BsPropose: "_on_propose",
        BsWrite: "_on_write",
        BsAccept: "_on_accept",
        BsViewState: "_on_report",
        BsDecide: "_on_catchup_reply",
    }
    SEQUENCE_TABLES = TotalOrderBroadcast.SEQUENCE_TABLES + (
        "_writes", "_wrote", "_accepted", "_early_votes",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._writes: Dict[tuple, Set[str]] = {}
        self._wrote: Set[tuple] = set()
        self._accepted: Set[tuple] = set()
        #: WRITE/ACCEPT votes that arrived before the proposal (network
        #: jitter can reorder a peer's write ahead of the leader's propose),
        #: keyed by (sequence, view) and replayed once the value is known —
        #: dropping them can cost the quorum in small clusters.
        self._early_votes: Dict[tuple, List[tuple]] = {}

    def _make_proposal(self, sequence: int, value: Any) -> BsPropose:
        return BsPropose(
            cluster_id=self.cluster_id, sequence=sequence, view=self.view_ts, value=value
        )

    def _on_propose(self, sender: str, proposal: BsPropose) -> None:
        if sender != self.leader or proposal.view != self.view_ts:
            return
        instance = self.instance(proposal.sequence)
        if instance.decided:
            return
        instance.value = proposal.value
        instance.value_digest = payload_digest(proposal.value)
        self.start_instance(proposal.sequence)
        key = (proposal.sequence, proposal.view)
        if key not in self._wrote:
            self._wrote.add(key)
            self.abeb.broadcast(
                BsWrite(
                    cluster_id=self.cluster_id,
                    sequence=proposal.sequence,
                    view=proposal.view,
                    value_digest=instance.value_digest,
                )
            )
        for voter, vote in self._early_votes.pop(key, []):
            if isinstance(vote, BsWrite):
                self._on_write(voter, vote)
            else:
                self._on_accept(voter, vote)

    def _on_write(self, sender: str, write: BsWrite) -> None:
        if write.view != self.view_ts or sender not in self.members():
            return  # only members' votes count toward a quorum
        instance = self.instance(write.sequence)
        if instance.decided:
            return
        if instance.value_digest is None:
            # Jitter reordered this write ahead of the proposal; buffer it.
            self._early_votes.setdefault((write.sequence, write.view), []).append((sender, write))
            return
        if write.value_digest != instance.value_digest:
            return
        key = (write.sequence, write.view)
        senders = self._writes.setdefault(key, set())
        senders.add(sender)
        if len(senders) < self.quorum():
            return
        if key in self._accepted:
            return
        self._accepted.add(key)
        digest = self.instance_commit_digest(instance)
        instance.prepared_value = instance.value
        round_marker = None
        if self.round_marker_fn is not None:
            round_marker = self.round_marker_fn(write.sequence)
        self.abeb.broadcast(
            BsAccept(
                cluster_id=self.cluster_id,
                sequence=write.sequence,
                view=write.view,
                value_digest=instance.value_digest,
                commit_signature=self.registry.sign(self.owner, digest),
                round_marker=round_marker,
            )
        )

    def _on_accept(self, sender: str, accept: BsAccept) -> None:
        if accept.view != self.view_ts:
            return
        if accept.round_marker is not None and self.on_round_marker is not None:
            self.on_round_marker(accept.sequence, sender, accept.round_marker)
        instance = self.instance(accept.sequence)
        if instance.decided:
            return
        if instance.value is None:
            self._early_votes.setdefault((accept.sequence, accept.view), []).append((sender, accept))
            return
        if accept.value_digest != instance.value_digest:
            return
        certificate = self._add_commit_signature(instance, accept.view, accept.commit_signature)
        if len(certificate) >= self.quorum():
            self._decide(accept.sequence, instance.value, certificate)

    # -- view change and catch-up (the skeleton is the base class's) ------ #
    def _make_report(self, sequence: int) -> BsViewState:
        """Report the value (if any) this replica saw proposed."""
        return BsViewState(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            value=self.instance(sequence).value,
        )

    def _recovered_value(self, sequence: int, reports: Dict[str, BsViewState]) -> Any:
        return next((r.value for r in reports.values() if r.value is not None), None)

    def _make_catchup_reply(self, decision: Decision) -> BsDecide:
        return BsDecide(
            cluster_id=self.cluster_id,
            sequence=decision.sequence,
            view=self.view_ts,
            value=decision.value,
            certificate=decision.certificate,
        )


__all__ = ["BftSmartEngine", "BsAccept", "BsDecide", "BsPropose", "BsViewState", "BsWrite"]
