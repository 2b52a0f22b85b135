"""Chained (pipelined) HotStuff: two phases per decision, decide rides the chain.

The basic engine (``consensus/hotstuff.py``) drives three linear vote rounds
(prepare / pre-commit / commit) plus a decide broadcast per decision — the
paper's Table-I ``O(8zn)`` row.  This engine is the same vote-collecting
core with a shorter ``VOTE_ROUNDS`` schedule: it subclasses
:class:`~repro.consensus.hotstuff.HotStuffEngine` and keeps only what is
genuinely chained, collapsing the pipeline the way chained HotStuff variants
(and two-phase descendants like Jolteon) do:

* **Two vote rounds instead of three.**  The leader's proposal starts a
  *prepare* round; the prepare quorum certificate comes back in a single
  *lock* broadcast; replicas lock on it and answer with their *commit* vote
  (which signs the Hamava commit digest and carries the piggybacked BRD
  round marker, exactly like the basic engine's commit vote).  The generic
  pre-commit round disappears.
* **The decide broadcast rides the next proposal.**  Once the leader holds
  the ``2f+1`` commit signatures it decides locally and, instead of
  broadcasting an explicit decide, attaches the commit certificate (and the
  ``decide_extra_fn`` payload — Hamava's quiet-round proof) to its *next*
  proposal in the chain.  A short grace timer (:data:`DECIDE_GRACE`)
  falls back to an explicit
  decide broadcast when no successor proposal shows up in time (end of a
  run, a stalled round), so followers are never left behind by more than
  the grace period.

Per steady-state decision this is one proposal + ``n-1`` prepare votes +
one lock broadcast + ``n-1`` commit votes — 4 broadcasts' worth of traffic
down from basic HotStuff's 7 (proposal, 3 vote rounds, pre-commit, commit
and decide broadcasts).

Safety argument (the two-phase commit rule):

* *One QC per view.*  Replicas vote at most once per (sequence, view,
  phase) and a certificate needs ``2f+1`` of ``3f+1`` members, so two
  conflicting prepare QCs for the same (sequence, view) would need
  ``2(2f+1) - (3f+1) = f+1`` correct replicas to vote twice — impossible.
* *Commit implies a locked quorum.*  A decision requires ``2f+1`` commit
  votes, and a correct replica only sends its commit vote after installing
  the prepare QC as its **lock** (value, view).  Hence at decision time at
  least ``f+1`` correct replicas are locked on the decided value at that
  view or higher.
* *View change re-anchors on the highest lock.*  A new leader collects
  ``2f+1`` ``ChNewView`` reports, each carrying the reporter's prepared
  certificate and its view, verifies and re-proposes the value of the
  **highest-view** valid certificate (attached to the re-proposal as its
  ``justify``).  Any report quorum intersects the decision's locked quorum
  in a correct replica, so a decided value is always among the reports,
  and no *conflicting* prepare QC can exist at its view or above (one QC
  per view + the voting rule below), so the highest-view certificate is
  the decided value.
* *The lock voting rule.*  A locked replica refuses prepare votes for a
  conflicting value unless the proposal's ``justify`` QC is valid at a view
  ``>=`` its lock's view.  A Byzantine leader therefore cannot assemble a
  conflicting QC after a decision: the ``2f+1`` votes it needs would have
  to include a locked correct replica, which demands a justify at or above
  the decided view — and no such conflicting justify exists.

The commit certificate still signs ``commit_digest(cluster, seq, batch)``,
so stage 2 ships it to remote clusters unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, Tuple

from repro.consensus.hotstuff import (
    HotStuffEngine,
    HsNewView,
    HsProposal,
    HsVote,
    _extra_size,
    _value_size,
)
from repro.consensus.interface import Decision, _Instance
from repro.net.crypto import Certificate
from repro.net.message import Message, payload_digest

#: Seconds the leader waits for a successor proposal to piggyback a decision
#: before falling back to an explicit decide broadcast.  Must stay well
#: below ``HamavaConfig.instance_timeout`` so followers never complain
#: about a decide that is merely riding the chain.
DECIDE_GRACE = 0.05


@dataclass
class ChProposal(HsProposal):
    """Leader's proposal: batch + optional justify QC + piggybacked decide.

    ``justify_*`` re-anchor a re-proposal after a view change on the highest
    prepared certificate (see the module docstring); steady-state proposals
    leave them empty.  ``decide_*`` carry the predecessor's decision down
    the chain — the commit certificate, and the ``decide_extra_fn`` payload
    (Hamava's quiet-round proof) — replacing the explicit decide broadcast.
    """

    justify_view: int = -1
    justify_certificate: Optional[Certificate] = None
    decide_sequence: int = -1
    decide_certificate: Optional[Certificate] = None
    decide_extra: Any = None

    def estimated_size(self) -> int:
        size = super().estimated_size() + _extra_size(self.decide_extra)
        if self.justify_certificate is not None:
            size += 96 * len(self.justify_certificate)
        if self.decide_certificate is not None:
            size += 96 * len(self.decide_certificate)
        return size

    def verification_cost(self) -> int:
        # Each attached QC verifies in (near) constant time — threshold
        # signatures, the same linearity claim as the basic engine's phases.
        cost = 1
        if self.justify_certificate is not None:
            cost += 1
        if self.decide_certificate is not None:
            cost += 1
        return cost


@dataclass
class ChVote(HsVote):
    """A replica's prepare or commit vote, sent to the leader.

    Commit votes sign the Hamava commit digest and may carry the replica's
    piggybacked BRD submission, exactly like the basic engine's commit vote.
    """


@dataclass
class ChLock(Message):
    """Leader's single intermediate broadcast carrying the prepare QC."""

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))

    def estimated_size(self) -> int:
        return 256 + 96 * len(self.certificate)

    def verification_cost(self) -> int:
        return 2


@dataclass
class ChDecide(Message):
    """Explicit decide: the grace-timer fallback and catch-up replies.

    Steady state never sends this — the decision rides the next proposal.
    Catch-up replies to laggards carry the decided ``value`` so the receiver
    can verify the commit certificate against it and adopt the decision.
    """

    cluster_id: int
    sequence: int
    view: int
    value_digest: str
    certificate: Certificate = field(default_factory=lambda: Certificate(""))
    extra: Any = None
    value: Any = None

    def estimated_size(self) -> int:
        return 256 + 96 * len(self.certificate) + _extra_size(self.extra) + _value_size(self.value)

    def verification_cost(self) -> int:
        return 2


@dataclass
class ChNewView(HsNewView):
    """View-change report: the reporter's lock (prepared QC + its view)."""

    prepared_view: int = -1


class ChainedHotStuffEngine(HotStuffEngine):
    """Two-phase pipelined HotStuff with the decide amortised over the chain."""

    #: The basic engine's "precommit" round is gone; no decide broadcast.
    VOTE_ROUNDS = ("prepare", "commit")
    #: Distinct from the basic engine's, so votes never cross variants.
    DIGEST_PREFIX = "chs"
    PROPOSAL, VOTE, REPORT = ChProposal, ChVote, ChNewView
    HANDLERS = {
        ChProposal: "_on_proposal",
        ChVote: "_on_vote",
        ChLock: "_on_lock",
        ChDecide: "_on_decide",
        ChNewView: "_on_report",
    }
    SEQUENCE_TABLES = HotStuffEngine.SEQUENCE_TABLES + (
        "_locked", "_justify", "_announced", "_pending_extras",
    )

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: This replica's lock per sequence: (view, value_digest) of the
        #: prepared certificate it holds.
        self._locked: Dict[int, Tuple[int, str]] = {}
        #: Justify QC staged for the next re-proposal: seq -> (view, cert).
        self._justify: Dict[int, Tuple[int, Certificate]] = {}
        #: Sequences whose decision this leader already announced (either a
        #: piggyback on a successor proposal or an explicit ChDecide).
        self._announced: Set[int] = set()
        #: Decide-extra payloads snapshotted at local-decide time, awaiting
        #: their chained (or grace-fallback) announcement.
        self._pending_extras: Dict[int, Any] = {}
        #: Grace timers between a local decide and its chained announcement.
        self._decide_pool = self.simulator.deadline_pool(
            self._announce_decide, name=f"{self.owner}:tob-chain"
        )

    def set_timer_rate(self, rate: float) -> None:
        super().set_timer_rate(rate)
        self._decide_pool.rate = rate

    # ------------------------------------------------------------------ #
    # Proposing: justify QC and the decide piggyback
    # ------------------------------------------------------------------ #
    def propose(self, sequence: int, value: Any) -> None:
        """Leader entry point: broadcast a chained proposal.

        A non-leader records its local batch only if no proposal arrived
        yet: chained followers learn their predecessor's decision *from* the
        successor proposal, so the replica round loop can lag the engine by
        a whole instance — its late ``propose`` must not clobber the
        in-flight proposed value it already prepare-voted for.
        """
        if not self.is_leader() and self.instance(sequence).value_digest is not None:
            return
        super().propose(sequence, value)

    def _make_proposal(self, sequence: int, value: Any) -> ChProposal:
        proposal = super()._make_proposal(sequence, value)
        justify = self._justify.pop(sequence, None)
        if justify is not None:
            proposal.justify_view, proposal.justify_certificate = justify
        prev = sequence - 1
        if prev >= 0 and prev not in self._announced:
            decision = self.decisions.get(prev)
            if decision is not None:
                # Fold the predecessor's decide into this proposal and
                # disarm its grace fallback — the chain carries it now.
                self._announced.add(prev)
                self._decide_pool.disarm(prev)
                proposal.decide_sequence = prev
                proposal.decide_certificate = decision.certificate
                proposal.decide_extra = self._pending_extras.pop(prev, None)
        return proposal

    # ------------------------------------------------------------------ #
    # Replica side: the lock/justify voting rule and chained decides
    # ------------------------------------------------------------------ #
    def _on_proposal(self, sender: str, proposal: ChProposal) -> None:
        if proposal.decide_sequence >= 0 and proposal.decide_certificate is not None:
            # The predecessor's decide travels with the proposal; process it
            # first so Hamava's round state advances before the new vote.
            self._process_decide(
                sender, proposal.decide_sequence, proposal.decide_certificate, proposal.decide_extra
            )
        locked = self._locked.get(proposal.sequence)
        if locked is not None:
            digest = payload_digest(proposal.value)
            # Locked on a conflicting value: only a justify QC at or above
            # the lock's view may unlock this replica (module docstring).
            if locked[1] != digest and not self._justify_unlocks(proposal, digest, locked[0]):
                return
        super()._on_proposal(sender, proposal)

    def _justify_unlocks(self, proposal: ChProposal, digest: str, locked_view: int) -> bool:
        certificate = proposal.justify_certificate
        if certificate is None or proposal.justify_view < locked_view:
            return False
        expected = self._phase_digest(proposal.sequence, proposal.justify_view, "prepare", digest)
        return self.registry.certificate_valid(
            certificate, self.members(), self.quorum(), digest=expected
        )

    def _on_lock(self, sender: str, message: ChLock) -> None:
        instance = self._proposed_instance(sender, message)
        if instance is not None:
            self._vote_on_qc(instance, message, "commit")

    def _install_prepared(self, instance: _Instance, view: int, certificate: Certificate) -> None:
        """Install the prepare QC as this replica's lock (then it commit-votes)."""
        super()._install_prepared(instance, view, certificate)
        self._locked[instance.sequence] = (view, instance.value_digest or "")

    def _process_decide(self, sender: str, sequence: int, certificate, extra: Any) -> None:
        """Adopt a chained or explicit decide against the locally held value."""
        instance = self._instances.get(sequence)
        if instance is None or instance.value is None:
            # A laggard that never saw the proposal cannot verify the bare
            # certificate; its watchdog's catch-up report draws a
            # value-carrying reply instead.
            return
        self._accept_decide(sender, instance, certificate, extra)

    def _on_decide(self, sender: str, message: ChDecide) -> None:
        if message.value is not None:
            self._on_catchup_reply(sender, message)
            return
        # Explicit decides are equally self-certifying against the locally
        # held value (the certificate binds cluster, sequence, and batch),
        # so no sender/view gate: a deposed leader flushing its last grace
        # timer is still announcing a real decision.
        self._process_decide(sender, message.sequence, message.certificate, message.extra)

    # ------------------------------------------------------------------ #
    # Leader side: one lock broadcast, decide rides the chain
    # ------------------------------------------------------------------ #
    def _open_round(self, instance: _Instance, phase: str, certificate: Certificate) -> None:
        # The leader locks on its own QC too (it is one of the 2f+1).
        self._install_prepared(instance, self.view_ts, certificate)
        self.abeb.broadcast(
            ChLock(
                cluster_id=self.cluster_id,
                sequence=instance.sequence,
                view=self.view_ts,
                value_digest=instance.value_digest or "",
                certificate=certificate,
            )
        )

    def _on_commit_quorum(self, instance: _Instance, certificate: Certificate) -> None:
        sequence = instance.sequence
        # The decide extra is snapshotted *before* ``_decide`` runs the
        # delivery callback — Hamava's quiet-round proof must be taken
        # ahead of the replica's own decision handling, which otherwise
        # aggregates the round through the full (non-quiet) path.
        extra = None
        if self.decide_extra_fn is not None:
            extra = self.decide_extra_fn(sequence)
            self._pending_extras[sequence] = extra
        self._decide(sequence, instance.value, certificate)
        if sequence in self._announced:
            return
        if extra is not None:
            # A quiet-round proof is riding this decide, and Hamava's
            # round loop cannot finish stage 1 (and thus reach the next
            # proposal) until followers answer it — waiting for the
            # chain here would gate the round on its own grace timer.
            # Announce immediately; the piggyback is reserved for
            # decides nothing time-critical rides on.
            self._announce_decide(sequence)
        else:
            self._decide_pool.arm(sequence, DECIDE_GRACE)

    def _announce_decide(self, sequence: int) -> None:
        """Broadcast an explicit decide (immediately, or as the grace fallback)."""
        decision = self.decisions.get(sequence)
        if decision is None or sequence in self._announced:
            return
        self._announced.add(sequence)
        extra = self._pending_extras.pop(sequence, None)
        self.abeb.broadcast(self._decide_message(decision, extra=extra))

    def _decide_message(self, decision: Decision, extra: Any = None, value: Any = None) -> ChDecide:
        return ChDecide(
            cluster_id=self.cluster_id,
            sequence=decision.sequence,
            view=self.view_ts,
            value_digest=payload_digest(decision.value),
            certificate=decision.certificate,
            extra=extra,
            value=value,
        )

    # ------------------------------------------------------------------ #
    # View change: report the lock, re-anchor on the highest one
    # ------------------------------------------------------------------ #
    def _make_report(self, sequence: int) -> ChNewView:
        report = super()._make_report(sequence)
        report.prepared_view = self._locked.get(sequence, (-1, ""))[0]
        return report

    def _make_catchup_reply(self, decision: Decision) -> ChDecide:
        return self._decide_message(decision, value=decision.value)

    def _recovered_value(self, sequence: int, reports: Dict[str, ChNewView]) -> Any:
        """The value of the highest-view *valid* prepared certificate, if any.

        Unlike the basic engine's three-phase recovery (where adopting *any*
        prepared value is safe), two-phase safety hinges on re-anchoring on
        the **highest** lock: a decided value is locked at the decision's
        view by a quorum, and no conflicting QC exists at that view or above.
        Certificates are verified before adoption so a Byzantine reporter
        cannot steer recovery with a forged lock.
        """
        candidates = [
            item
            for item in reports.values()
            if item.prepared_value is not None and item.prepared_certificate is not None
        ]
        candidates.sort(key=lambda item: item.prepared_view, reverse=True)
        for item in candidates:
            digest = payload_digest(item.prepared_value)
            expected = self._phase_digest(sequence, item.prepared_view, "prepare", digest)
            if self.registry.certificate_valid(
                item.prepared_certificate, self.members(), self.quorum(), digest=expected
            ):
                self._justify[sequence] = (item.prepared_view, item.prepared_certificate)
                return item.prepared_value
        return None


__all__ = [
    "ChDecide",
    "ChLock",
    "ChNewView",
    "ChProposal",
    "ChVote",
    "ChainedHotStuffEngine",
    "DECIDE_GRACE",
]
