"""A HotStuff-like local ordering engine (AVA-HOTSTUFF's substrate).

This is a faithful-in-structure, simplified-in-detail model of basic
(non-pipelined) HotStuff: the leader drives three linear voting phases
(prepare, pre-commit, commit) followed by a decide broadcast.  All
communication is leader-to-all and all-to-leader, so the per-decision message
complexity is linear in the cluster size — the ``O(8zn)`` row of the paper's
Table I.

:class:`HotStuffEngine` is also the one vote-collecting core of every
HotStuff variant: the vote-round schedule, the message classes and the
vote-digest prefix are class attributes, and a variant (the chained engine
in ``consensus/hotstuff_chained.py``) is a subclass that changes them and
overrides the few steps that genuinely differ.

The commit-phase votes sign the cluster/round/batch commit digest, so the
resulting certificate is exactly what Hamava's stage 2 forwards to remote
clusters and what remote replicas verify against their view of ``C_i``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.consensus.interface import Decision, TotalOrderBroadcast, _Instance
from repro.net.crypto import Certificate, Signature
from repro.net.message import Message, payload_digest


@dataclass
class HsProposal(Message):
    """Leader's prepare-phase proposal carrying the batch."""

    cluster_id: int
    sequence: int
    view: int
    value: Any

    def estimated_size(self) -> int:
        return 256 + _value_size(self.value)

    def verification_cost(self) -> int:
        return 1


@dataclass
class HsVote(Message):
    """A replica's vote for one phase, sent to the leader.

    Commit-phase votes may carry an opaque ``round_marker`` (the replica's
    piggybacked BRD submission for the round — see ``round_marker_fn`` in
    ``consensus/interface.py``); the marker's signature is verified by the
    receiver, so it adds one verification to the message cost.
    """

    cluster_id: int
    sequence: int
    view: int
    phase: str
    value_digest: str
    commit_signature: Optional[Signature] = None
    round_marker: Any = None

    def verification_cost(self) -> int:
        return 1 if self.round_marker is None else 2


@dataclass
class HsPhase(Message):
    """Leader's pre-commit / commit / decide broadcast carrying a QC."""

    cluster_id: int
    sequence: int
    view: int
    phase: str
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))
    #: Opaque piggyback slot on the decide broadcast (``decide_extra_fn``);
    #: Hamava ships the quiet-round empty-unanimity proof here.
    extra: Any = None
    #: Catch-up decides (leader → laggard replies) carry the decided value
    #: so a replica that never saw the winning proposal can verify the
    #: commit certificate against it and adopt the decision.  Broadcast
    #: decides leave it ``None`` — receivers hold the value already.
    value: Any = None

    def estimated_size(self) -> int:
        return 256 + 96 * len(self.certificate) + _extra_size(self.extra) + _value_size(self.value)

    def verification_cost(self) -> int:
        # HotStuff aggregates votes into a quorum certificate that verifies in
        # (near) constant time (threshold signatures); receivers do not pay a
        # per-signature cost, which is the core of its linearity claim.
        return 2


@dataclass
class HsNewView(Message):
    """View-change report sent to the new leader."""

    cluster_id: int
    sequence: int
    view: int
    prepared_value: Any = None
    prepared_certificate: Optional[Certificate] = None

    def estimated_size(self) -> int:
        size = 256 + _value_size(self.prepared_value)
        if self.prepared_certificate is not None:
            size += 96 * len(self.prepared_certificate)
        return size

    def verification_cost(self) -> int:
        if self.prepared_certificate is None:
            return 1
        return max(1, len(self.prepared_certificate))


def _value_size(value: Any) -> int:
    """Rough serialized size of a proposal value (batch of transactions)."""
    if value is None:
        return 0
    if isinstance(value, (list, tuple)):
        return 1024 * len(value)
    return 1024


def _extra_size(extra: Any) -> int:
    """Rough serialized size of a decide's opaque piggyback (``decide_extra_fn``)."""
    if extra is None:
        return 0
    return 128 + 96 * len(extra) if hasattr(extra, "__len__") else 128


class HotStuffEngine(TotalOrderBroadcast):
    """Leader-driven, linear-communication total-order broadcast.

    The leader opens each vote round with a broadcast, replicas answer it
    point-to-point, and ``2f+1`` member votes form the quorum certificate
    that opens the next round; votes of the last round (always ``"commit"``)
    also sign the commit digest, and ``2f+1`` of those are the decision.
    """

    #: The vote-round schedule: three rounds, then a decide broadcast.
    VOTE_ROUNDS = ("prepare", "precommit", "commit")
    #: Prefix of the digest replicas vote over in each round.
    DIGEST_PREFIX = "hs"
    PROPOSAL, VOTE, REPORT = HsProposal, HsVote, HsNewView
    HANDLERS = {
        HsProposal: "_on_proposal",
        HsVote: "_on_vote",
        HsPhase: "_on_phase",
        HsNewView: "_on_report",
    }
    SEQUENCE_TABLES = TotalOrderBroadcast.SEQUENCE_TABLES + ("_vote_certs", "_voted", "_advanced")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per (sequence, view, phase) vote certificates collected by the leader.
        self._vote_certs: Dict[tuple, Certificate] = {}
        self._voted: Set[tuple] = set()
        #: Per (sequence, view, completed phase) guard so each quorum fires
        #: its follow-up broadcast exactly once.  Without it every vote past
        #: the quorum re-broadcast the next phase (and receivers dropped the
        #: duplicate via ``_voted``) — two redundant broadcasts per decision.
        self._advanced: Set[tuple] = set()

    def _phase_digest(self, sequence: int, view: int, phase: str, value_digest: str) -> str:
        """Digest replicas vote over in ``phase`` (the commit digest rides beside it)."""
        return f"{self.DIGEST_PREFIX}|{phase}|c{self.cluster_id}|s{sequence}|v{view}|{value_digest}"

    def _make_proposal(self, sequence: int, value: Any) -> HsProposal:
        return self.PROPOSAL(
            cluster_id=self.cluster_id, sequence=sequence, view=self.view_ts, value=value
        )

    # -- replica side --------------------------------------------------- #
    def _on_proposal(self, sender: str, proposal: HsProposal) -> None:
        if sender != self.leader or proposal.view != self.view_ts:
            return
        instance = self.instance(proposal.sequence)
        if instance.decided:
            return
        instance.value = proposal.value
        instance.value_digest = payload_digest(proposal.value)
        self.start_instance(proposal.sequence)
        self._send_vote(proposal.sequence, "prepare", instance.value_digest)

    def _send_vote(self, sequence: int, phase: str, value_digest: str) -> None:
        key = (sequence, self.view_ts, phase)
        if key in self._voted:
            return
        self._voted.add(key)
        commit_signature = None
        round_marker = None
        if phase == "commit":
            digest = self.instance_commit_digest(self.instance(sequence))
            commit_signature = self.registry.sign(self.owner, digest)
            if self.round_marker_fn is not None:
                round_marker = self.round_marker_fn(sequence)
        vote = self.VOTE(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            phase=phase,
            value_digest=value_digest,
            commit_signature=commit_signature,
            round_marker=round_marker,
        )
        self.apl.send(self.leader, vote)

    def _proposed_instance(self, sender: str, message: Any) -> Optional[_Instance]:
        """The instance a leader broadcast refers to, if this replica may act on it."""
        if sender != self.leader or message.view != self.view_ts:
            return None
        instance = self.instance(message.sequence)
        if instance.value_digest is None or instance.value_digest != message.value_digest:
            # The replica never saw the proposal (or saw a conflicting one);
            # it cannot vouch for the value, so it abstains.
            return None
        return instance

    def _on_phase(self, sender: str, message: HsPhase) -> None:
        if message.phase == "decide" and message.value is not None:
            self._on_catchup_reply(sender, message)
            return
        instance = self._proposed_instance(sender, message)
        if instance is None:
            return
        if message.phase == "decide":
            self._accept_decide(sender, instance, message.certificate, message.extra)
        elif message.phase in self.VOTE_ROUNDS[1:]:
            self._vote_on_qc(instance, message, message.phase)

    def _vote_on_qc(self, instance: _Instance, message: Any, phase: str) -> None:
        """Vote in ``phase`` if the message carries the previous round's QC."""
        rounds = self.VOTE_ROUNDS
        expected = self._phase_digest(
            message.sequence, message.view, rounds[rounds.index(phase) - 1], message.value_digest
        )
        if not self.registry.certificate_valid(
            message.certificate, self.members(), self.quorum(), digest=expected
        ):
            return
        if phase == "commit":
            self._install_prepared(instance, message.view, message.certificate)
        self._send_vote(message.sequence, phase, message.value_digest)

    def _install_prepared(self, instance: _Instance, view: int, certificate: Certificate) -> None:
        """Record the QC that opened the commit round (reported on view change)."""
        instance.prepared_value = instance.value
        instance.prepared_certificate = certificate

    def _accept_decide(
        self, sender: str, instance: _Instance, certificate: Certificate, extra: Any
    ) -> None:
        """Deliver an announced decide after checking it against the held value."""
        digest = self.instance_commit_digest(instance)
        if not self.registry.certificate_valid(
            certificate, self.members(), self.quorum(), digest=digest
        ):
            return
        self._decide(instance.sequence, instance.value, certificate)
        if extra is not None and self.on_decide_extra is not None:
            self.on_decide_extra(instance.sequence, sender, extra)

    # -- leader side ----------------------------------------------------- #
    def _on_vote(self, sender: str, vote: HsVote) -> None:
        if not self.is_leader() or vote.view != self.view_ts:
            return
        if sender not in self.members() or vote.phase not in self.VOTE_ROUNDS:
            return  # only members' votes for a scheduled round count
        if vote.round_marker is not None and self.on_round_marker is not None:
            self.on_round_marker(vote.sequence, sender, vote.round_marker)
        instance = self.instance(vote.sequence)
        if instance.decided or instance.value is None:
            return
        if vote.value_digest != instance.value_digest:
            return
        key = (vote.sequence, vote.view, vote.phase)
        phase_digest = self._phase_digest(vote.sequence, vote.view, vote.phase, vote.value_digest)
        cert = self._vote_certs.setdefault(key, Certificate(phase_digest, kind=vote.phase))
        cert.add(self.registry.sign(sender, phase_digest))
        commit_cert = None
        if vote.phase == "commit":
            commit_cert = self._add_commit_signature(instance, vote.view, vote.commit_signature)
            if len(commit_cert) < self.quorum():
                return
        if len(cert) < self.quorum() or key in self._advanced:
            return
        self._advanced.add(key)
        if commit_cert is not None:
            self._on_commit_quorum(instance, commit_cert)
        else:
            rounds = self.VOTE_ROUNDS
            self._open_round(instance, rounds[rounds.index(vote.phase) + 1], cert)

    def _open_round(self, instance: _Instance, phase: str, certificate: Certificate) -> None:
        """A round's quorum certificate opens vote round ``phase``."""
        self._broadcast_phase(instance, phase, certificate)

    def _on_commit_quorum(self, instance: _Instance, certificate: Certificate) -> None:
        """``2f+1`` members signed the commit digest: announce the decision."""
        extra = None
        if self.decide_extra_fn is not None:
            extra = self.decide_extra_fn(instance.sequence)
        self._broadcast_phase(instance, "decide", certificate, extra)

    def _broadcast_phase(
        self, instance: _Instance, phase: str, certificate: Certificate, extra: Any = None
    ) -> None:
        self.abeb.broadcast(
            HsPhase(
                cluster_id=self.cluster_id,
                sequence=instance.sequence,
                view=self.view_ts,
                phase=phase,
                value_digest=instance.value_digest or "",
                certificate=certificate,
                extra=extra,
            )
        )

    # -- view change and catch-up (the skeleton is the base class's) ------ #
    def _make_report(self, sequence: int) -> HsNewView:
        instance = self.instance(sequence)
        return self.REPORT(
            cluster_id=self.cluster_id,
            sequence=sequence,
            view=self.view_ts,
            prepared_value=instance.prepared_value,
            prepared_certificate=instance.prepared_certificate,
        )

    def _recovered_value(self, sequence: int, reports: Dict[str, HsNewView]) -> Any:
        for item in reports.values():
            if item.prepared_value is not None and item.prepared_certificate is not None:
                return item.prepared_value
        return None

    def _make_catchup_reply(self, decision: Decision) -> HsPhase:
        return HsPhase(
            cluster_id=self.cluster_id,
            sequence=decision.sequence,
            view=self.view_ts,
            phase="decide",
            value_digest=payload_digest(decision.value),
            certificate=decision.certificate,
            value=decision.value,
        )


__all__ = ["HotStuffEngine", "HsNewView", "HsPhase", "HsProposal", "HsVote"]
