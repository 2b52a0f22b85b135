"""Byzantine Reliable Dissemination (paper Alg. 5/6).

BRD collects one message (a set of reconfiguration requests) from every
replica of a cluster, lets the leader aggregate a quorum of them, and then
reliably disseminates the aggregated set through Echo/Ready phases so that

* the delivered set provably contains the submissions of a quorum
  (*Integrity* — a Byzantine leader cannot censor a request stored at a
  quorum),
* no two correct replicas deliver different sets (*Uniformity*), even when
  the leader changes mid-dissemination (new leaders adopt the highest-
  timestamped ``valid`` set reported by a quorum), and
* every correct replica eventually delivers (*Termination*), because a stuck
  leader is complained about and replaced.

Delivery hands back two proofs: Σ (the collection proof — who submitted
what) and Σ' (the Ready certificate — ``2f+1`` signatures over the delivered
set), which Hamava ships to remote clusters as evidence that the
reconfiguration set is the cluster's uniform decision for the round.

Quiet rounds (protocol deviation, see README "Protocol deviations")
-------------------------------------------------------------------
In steady state no reconfiguration is pending, so every round disseminates
the *empty* set through the full ``submit / agg / echo / ready`` exchange —
``2n² + 2n`` messages per round to agree on nothing.  When the leader's
aggregate is **provably empty-and-unanimous** — the collection proof carries
``2f+1`` valid signed *empty* submissions, so the union is empty by
construction — replicas skip the Echo phase entirely: they consume their
one echo/ready slot for the view, sign the Ready digest over the empty set,
and send that signature point-to-point to the leader.  The leader assembles
the ``2f+1`` Ready certificate and broadcasts a single
:class:`~repro.core.messages.BrdQuietDeliver` marker; replicas deliver the
empty set on validating it.  A quiet round therefore exchanges four linear
legs — submit, aggregate, Ready-to-leader, deliver marker, ``4n`` messages
counting loop-backs — instead of ``2n² + 2n``; and since the submissions
ride the consensus engine's commit votes (:meth:`make_marker`) and the
aggregate rides the HotStuff decide broadcast
(:meth:`take_quiet_proof`), the steady-state *wire* cost is just the two
post-decision legs, ``2(n-1)`` messages.  Non-empty rounds (and all
view-change recovery paths) run the full protocol unchanged.

Why an empty-and-unanimous aggregate needs no Echo quorum:  Echo exists so
that no two correct replicas *ready* different sets in the same view — a
correct replica echoes at most once, so two echo quorums for different sets
would intersect in a correct double-echoer.  On the quiet path the Ready
signature over the empty set *is* that single slot: a correct replica signs
quiet-Ready(∅) or echoes some non-empty set, never both (``echoed`` and
``readied`` are set before the signature leaves).  Hence a ``2f+1``
quiet-Ready certificate for ∅ and a ``2f+1`` Echo (and therefore Ready)
quorum for a non-empty set cannot both form: they would intersect in
``f+1`` replicas, at least one correct, which spent its one slot twice.
Uniformity is preserved, and the delivered Σ' is a standard Ready
certificate — remote-cluster verification is byte-for-byte the full path's.

What a Byzantine leader can and cannot forge about emptiness:  It cannot
fabricate the proof — each entry is a signature over the submit digest of
the empty set, and signatures are unforgeable.  If a request is stored at a
quorum (the requester's Alg. 3 retry loop guarantees this eventually), then
every collection quorum intersects the storing quorum in ``f+1`` correct
replicas whose submissions are non-empty, leaving at most ``2f`` possible
empty signers — short of the ``2f+1`` the proof needs.  So quiet rounds
cannot censor a quorum-stored request.  What the leader *can* do is omit a
request held by fewer than ``f+1`` correct replicas for a round — exactly
the censorship the full path already permits (the leader aggregates only a
quorum of submissions), so the adversary gains no new power.  A leader that
withholds the deliver marker only delays: the delivery timer fires, the
leader is replaced, and the new leader re-runs the round from the reported
valid sets (a quiet acceptor hands over the empty-unanimous proof itself,
kind ``"collection"``).

How one pending request forces the full path for everyone:  A replica with
a non-empty pending set submits it, so an honest leader's aggregate (the
union) is non-empty and the round takes the full Echo/Ready path at every
replica.  A Byzantine leader that instead aggregates ``2f+1`` empty
submissions behind the replica's back is the censorship case above — bounded
by quorum storage, and temporary by the retry loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import BrdAgg, BrdEcho, BrdQuietDeliver, BrdReady, BrdSubmit, BrdValid
from repro.core.types import ReconfigRequest
from repro.net.crypto import Certificate, Signature, VerdictMemo
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Envelope, payload_digest
from repro.net.network import Network
from repro.sim.simulator import Simulator


def canonical_recs(recs) -> Tuple[ReconfigRequest, ...]:
    """Canonical (sorted, de-duplicated) form of a reconfiguration set."""
    if isinstance(recs, tuple) and not recs:
        return ()  # the overwhelmingly common case: no reconfigs this round
    return tuple(sorted(set(recs)))


#: Integer phase kinds used as digest-memo keys (ints hash to themselves;
#: the old string kinds re-hashed per lookup).
_SUBMIT, _ECHO, _READY = 0, 1, 2
_KIND_NAMES = ("submit", "echo", "ready")

#: Interned phase digests for the *empty* set, keyed by the packed int
#: ``(round << 34) | (cluster << 2) | kind``.  In steady state every
#: replica of a cluster rebuilds the same three f-strings every round (and
#: re-walks the empty payload digest); the intern table builds each string
#: once per process and shares it across replicas — and across the
#: signature/token memos downstream, which key on the digest string's hash.
#: Pure interning: the value for a key is the same in every process and
#: shard layout.  It gains three entries per cluster per round in every run
#: a process makes (pool workers and test sessions run many), so it is
#: cleared when it reaches ``_EMPTY_PHASE_DIGESTS_MAX`` entries; a cleared
#: entry is rebuilt equal on its next use.
_EMPTY_PHASE_DIGESTS: Dict[int, str] = {}

#: Entry bound of the intern table (one ``geo32`` run makes ~2 400).
_EMPTY_PHASE_DIGESTS_MAX = 1 << 12

_EMPTY_PAYLOAD_DIGEST = payload_digest(())


def _empty_phase_digest(kind: int, cluster_id: int, round_number: int) -> str:
    key = (round_number << 34) | (cluster_id << 2) | kind
    digest = _EMPTY_PHASE_DIGESTS.get(key)
    if digest is None:
        if len(_EMPTY_PHASE_DIGESTS) >= _EMPTY_PHASE_DIGESTS_MAX:
            _EMPTY_PHASE_DIGESTS.clear()
        digest = _EMPTY_PHASE_DIGESTS[key] = (
            f"brd-{_KIND_NAMES[kind]}|c{cluster_id}|r{round_number}|{_EMPTY_PAYLOAD_DIGEST}"
        )
    return digest


def _phase_digest_for(kind: int, cluster_id: int, round_number: int, recs) -> str:
    recs = canonical_recs(recs)
    if not recs:
        return _empty_phase_digest(kind, cluster_id, round_number)
    return f"brd-{_KIND_NAMES[kind]}|c{cluster_id}|r{round_number}|{payload_digest(recs)}"


def submit_digest(cluster_id: int, round_number: int, recs) -> str:
    """Digest a replica signs when submitting its collected set."""
    return _phase_digest_for(_SUBMIT, cluster_id, round_number, recs)


def ready_digest(cluster_id: int, round_number: int, recs) -> str:
    """Digest ready votes sign; this is the certificate remote clusters check."""
    return _phase_digest_for(_READY, cluster_id, round_number, recs)


@dataclass(frozen=True)
class CollectionEntry:
    """One replica's signed submission inside a collection proof."""

    sender: str
    recs: Tuple[ReconfigRequest, ...]
    signature: Signature


@dataclass
class CollectionProof(VerdictMemo):
    """Σ: the signed submissions the leader aggregated (quorum of them).

    Every member checks the one proof object the leader broadcast, so
    :meth:`ByzantineReliableDissemination.collection_valid` remembers a
    passing check on it (:class:`~repro.net.crypto.VerdictMemo`).
    """

    cluster_id: int
    round_number: int
    entries: Tuple[CollectionEntry, ...] = ()

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class _ValidSet:
    """A locally stored "valid" set, forwarded to new leaders on view change."""

    recs: Tuple[ReconfigRequest, ...]
    certificate: Certificate
    kind: str  # "echo" or "ready"
    view_ts: int


class ByzantineReliableDissemination:
    """One BRD instance (one cluster, one round) at one replica.

    Args:
        owner: Replica id this instance runs at.
        cluster_id: Local cluster id.
        round_number: The round this instance disseminates for.
        members_fn: Callable returning current cluster membership as a
            sorted tuple (the ``members_fn`` contract).
        faults_fn: Callable returning the current failure threshold ``f``.
        network: Simulated network.
        simulator: Simulation kernel (for the delivery timer).
        leader: Current cluster leader when the instance is created.
        view_ts: Leader timestamp when the instance is created.
        timeout: Seconds to wait for delivery before complaining.
        on_deliver: ``(recs, collection_proof, ready_certificate) -> None``.
        on_complain: ``(leader_id) -> None``.
        timer_pool: Optional :class:`~repro.sim.simulator.DeadlinePool`
            shared by the owning replica's BRD instances (keyed by round);
            when absent the instance owns a plain :class:`Timer`.  The pool
            owner must route expirations back to :meth:`on_timeout`.
    """

    MESSAGE_TYPES = (BrdSubmit, BrdAgg, BrdEcho, BrdReady, BrdQuietDeliver, BrdValid)

    def __init__(
        self,
        owner: str,
        cluster_id: int,
        round_number: int,
        members_fn: Callable[[], List[str]],
        faults_fn: Callable[[], int],
        network: Network,
        simulator: Simulator,
        leader: str,
        view_ts: int,
        timeout: float = 20.0,
        on_deliver: Optional[Callable] = None,
        on_complain: Optional[Callable[[str], None]] = None,
        timer_pool=None,
    ) -> None:
        self.owner = owner
        self.cluster_id = cluster_id
        self.round_number = round_number
        self.members_fn = members_fn
        self.faults_fn = faults_fn
        self.network = network
        self.simulator = simulator
        self.leader = leader
        self.view_ts = view_ts
        self.timeout = timeout
        self.on_deliver = on_deliver or (lambda recs, proof, cert: None)
        self.on_complain = on_complain or (lambda leader: None)
        self.apl = AuthenticatedPerfectLink(owner, network)
        self.abeb = AuthenticatedBestEffortBroadcast(owner, network, members_fn)

        # Replica-side state (Alg. 5 vars).
        self.my_recs: Optional[Tuple[ReconfigRequest, ...]] = None
        self.echoed = False
        self.readied = False
        self.delivered = False
        self.valid: Optional[_ValidSet] = None
        #: Whether this view's accepted aggregate took the quiet path (an
        #: empty-and-unanimous collection proof; see the module docstring).
        self.quiet = False
        self._quiet_deliver_sent = False
        #: (view, recs) of the submission piggybacked on this replica's
        #: commit-phase vote (``make_marker``), so ``broadcast`` at decision
        #: time skips the redundant ``BrdSubmit``.
        self._marker_view: Optional[int] = None
        self._marker_recs: Optional[Tuple[ReconfigRequest, ...]] = None

        # Leader-side state.
        self._collected: Dict[str, CollectionEntry] = {}
        self._quorum_senders: set = set()
        self.high_valid: Optional[_ValidSet] = None
        self._aggregated_view: Optional[int] = None

        # Vote tracking keyed by the recs digest.
        self._echo_certs: Dict[str, Certificate] = {}
        self._ready_certs: Dict[str, Certificate] = {}
        self._agg_proofs: Dict[str, CollectionProof] = {}

        #: Per-instance memo of *non-empty* phase digests, keyed by
        #: ``(kind int, canonical recs)`` — every received vote used to
        #: rebuild the same f-string (and re-walk the recs digest) to
        #: compare against the signature.  The empty-set digests (the
        #: overwhelming majority) come from the module-level intern table
        #: instead, shared across replicas and rounds.
        self._digest_memo: Dict[Tuple[int, Tuple[ReconfigRequest, ...]], str] = {}

        if timer_pool is not None:
            self._timer = timer_pool.timer(round_number, timeout)
        else:
            self._timer = simulator.timer(
                timeout, self.on_timeout, name=f"{owner}:brd:{round_number}"
            )

    def _phase_digest(self, kind: int, recs: Tuple[ReconfigRequest, ...]) -> str:
        """Memoised ``{submit,echo,ready}_digest`` for canonical ``recs``."""
        if not recs:
            return _empty_phase_digest(kind, self.cluster_id, self.round_number)
        memo = self._digest_memo
        key = (kind, recs)
        digest = memo.get(key)
        if digest is None:
            digest = memo[key] = (
                f"brd-{_KIND_NAMES[kind]}|c{self.cluster_id}|r{self.round_number}|{payload_digest(recs)}"
            )
        return digest

    # ------------------------------------------------------------------ #
    # Membership helpers
    # ------------------------------------------------------------------ #
    def members(self) -> Sequence[str]:
        """Current cluster membership (a sorted tuple, per the contract).

        No defensive re-sort: BRD only uses this for membership and quorum
        checks (order-insensitive), and it runs once per echo/ready message.
        """
        return self.members_fn()

    def quorum(self) -> int:
        """Quorum size ``2f + 1``."""
        return 2 * self.faults_fn() + 1

    @property
    def registry(self):
        """The shared key registry."""
        return self.network.registry

    def is_leader(self) -> bool:
        """Whether this replica is the current BRD leader."""
        return self.owner == self.leader

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def broadcast(self, recs) -> None:
        """Submit this replica's collected reconfiguration set (Alg. 5 l.13).

        When the same set already rode this view's commit-phase vote as a
        round marker (:meth:`make_marker`), only the delivery timer is
        armed — the leader holds the signed submission already.
        """
        self.my_recs = canonical_recs(recs)
        if self._marker_view == self.view_ts and self._marker_recs == self.my_recs:
            self._timer.start(self.timeout)
            return
        signature = self.registry.sign(
            self.owner, self._phase_digest(_SUBMIT, self.my_recs)
        )
        self.apl.send(
            self.leader,
            BrdSubmit(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                view_ts=self.view_ts,
                recs=self.my_recs,
                signature=signature,
            ),
        )
        self._timer.start(self.timeout)

    # -- consensus piggyback (quiet rounds; see the module docstring) ---- #
    def make_marker(self, recs) -> Tuple[int, Tuple[ReconfigRequest, ...], Signature]:
        """Early submission riding this replica's commit-phase vote.

        Semantically identical to a :class:`BrdSubmit` — the signature
        covers the same submit digest — just snapshotted at commit-vote
        time instead of decision time.  A request arriving in between is
        re-submitted next round (the collector keeps pending requests until
        they execute), so nothing is lost.
        """
        recs = canonical_recs(recs)
        self.my_recs = recs
        self._marker_view = self.view_ts
        self._marker_recs = recs
        signature = self.registry.sign(self.owner, self._phase_digest(_SUBMIT, recs))
        return (self.view_ts, recs, signature)

    def on_marker(self, sender: str, marker) -> None:
        """Leader-side ingestion of a piggybacked submission.

        Validation mirrors ``_on_submit``; aggregation is deferred so the
        quiet proof can ride the decide broadcast (``take_quiet_proof``) and
        mixed rounds aggregate at decision (``flush_aggregate``).
        """
        if not self.is_leader():
            return
        try:
            view_ts, recs, signature = marker
        except (TypeError, ValueError):
            return
        if view_ts != self.view_ts or sender not in self.members():
            return
        recs = canonical_recs(recs)
        expected = self._phase_digest(_SUBMIT, recs)
        if signature is None or signature.digest != expected:
            return
        if signature.signer != sender or not self.registry.verify(signature):
            return
        self._collected[sender] = CollectionEntry(sender=sender, recs=recs, signature=signature)
        self._quorum_senders.add(sender)

    def take_quiet_proof(self) -> Optional[CollectionProof]:
        """The empty-unanimity proof for the decide broadcast, if one exists.

        Returns a collection proof — and marks the view aggregated — only
        when a quorum of submissions is in hand and every one of them is
        empty; any pending request, or an adopted valid set from a previous
        view, falls through to the full path (``flush_aggregate``).
        """
        if not self.is_leader() or self._aggregated_view == self.view_ts:
            return None
        if self.high_valid is not None:
            return None
        if len(self._quorum_senders) < self.quorum():
            return None
        entries = tuple(self._collected.values())
        if len(entries) < self.quorum():
            return None
        if any(entry.recs for entry in entries):
            return None
        self._aggregated_view = self.view_ts
        proof = CollectionProof(
            cluster_id=self.cluster_id, round_number=self.round_number, entries=entries
        )
        self._agg_proofs[payload_digest(())] = proof
        return proof

    def on_quiet_aggregate(self, sender: str, proof) -> None:
        """Accept a quiet proof that rode the leader's decide broadcast."""
        if sender != self.leader or self.echoed:
            return
        if not isinstance(proof, CollectionProof):
            return
        if not self.collection_valid(proof, ()):
            return
        self._agg_proofs[payload_digest(())] = proof
        self._go_quiet(proof)

    def flush_aggregate(self) -> None:
        """Aggregate now if a quorum of submissions is already collected.

        The replica calls this at decision time: with piggybacked markers
        the leader usually holds a full quorum before any ``BrdSubmit``
        arrives, and nothing else would trigger aggregation when every
        submission rode a marker.
        """
        self._maybe_aggregate()

    def new_leader(self, leader: str, view_ts: int) -> None:
        """Install a new leader and hand it this replica's state (Alg. 6 l.40)."""
        self.leader = leader
        self.view_ts = view_ts
        self.echoed = False
        self.readied = False
        self.quiet = False
        self._quiet_deliver_sent = False
        self._marker_view = None
        self._marker_recs = None
        self.high_valid = None
        self._collected = {}
        self._quorum_senders = set()
        self._aggregated_view = None
        if self.delivered:
            return
        self._timer.start(self.timeout)
        if self.valid is not None:
            self.apl.send(
                self.leader,
                BrdValid(
                    cluster_id=self.cluster_id,
                    round_number=self.round_number,
                    view_ts=self.view_ts,
                    recs=self.valid.recs,
                    certificate=self.valid.certificate,
                    certificate_kind=self.valid.kind,
                    valid_ts=self.valid.view_ts,
                ),
            )
        elif self.my_recs is not None:
            signature = self.registry.sign(
                self.owner, self._phase_digest(_SUBMIT, self.my_recs)
            )
            self.apl.send(
                self.leader,
                BrdSubmit(
                    cluster_id=self.cluster_id,
                    round_number=self.round_number,
                    view_ts=self.view_ts,
                    recs=self.my_recs,
                    signature=signature,
                ),
            )

    def stop(self) -> None:
        """Stop the delivery timer (used when a round is torn down)."""
        self._timer.stop()

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> bool:
        """Consume a BRD message for this cluster and round."""
        payload = envelope.payload
        if not isinstance(payload, self.MESSAGE_TYPES):
            return False
        if payload.cluster_id != self.cluster_id or payload.round_number != self.round_number:
            return False
        if isinstance(payload, BrdSubmit):
            self._on_submit(sender, payload)
        elif isinstance(payload, BrdAgg):
            self._on_agg(sender, payload)
        elif isinstance(payload, BrdEcho):
            self._on_echo(sender, payload)
        elif isinstance(payload, BrdReady):
            self._on_ready(sender, payload)
        elif isinstance(payload, BrdQuietDeliver):
            self._on_quiet_deliver(sender, payload)
        elif isinstance(payload, BrdValid):
            self._on_valid(sender, payload)
        return True

    # -- leader side ------------------------------------------------------ #
    def _on_submit(self, sender: str, message: BrdSubmit) -> None:
        if not self.is_leader() or message.view_ts != self.view_ts:
            return
        if sender not in self.members():
            return
        recs = canonical_recs(message.recs)
        expected = self._phase_digest(_SUBMIT, recs)
        if message.signature is None or message.signature.digest != expected:
            return
        if message.signature.signer != sender or not self.registry.verify(message.signature):
            return
        self._collected[sender] = CollectionEntry(sender=sender, recs=recs, signature=message.signature)
        self._quorum_senders.add(sender)
        self._maybe_aggregate()

    def _on_valid(self, sender: str, message: BrdValid) -> None:
        if not self.is_leader():
            return
        if sender not in self.members():
            return
        recs = canonical_recs(message.recs)
        if not self._attestation_valid(recs, message.certificate, message.certificate_kind):
            return
        if self.high_valid is None or message.valid_ts > self.high_valid.view_ts:
            self.high_valid = _ValidSet(
                recs=recs,
                certificate=message.certificate,
                kind=message.certificate_kind,
                view_ts=message.valid_ts,
            )
        self._quorum_senders.add(sender)
        self._maybe_aggregate()

    def _maybe_aggregate(self) -> None:
        if not self.is_leader():
            return
        if len(self._quorum_senders) < self.quorum():
            return
        if self._aggregated_view == self.view_ts:
            return
        self._aggregated_view = self.view_ts
        if self.high_valid is not None:
            message = BrdAgg(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                view_ts=self.view_ts,
                recs=self.high_valid.recs,
                collection_certificate=self.high_valid.certificate,
                attestation_kind=self.high_valid.kind,
            )
            self.abeb.broadcast(message)
            return
        union: set = set()
        for entry in self._collected.values():
            union.update(entry.recs)
        aggregated = canonical_recs(union)
        proof = CollectionProof(
            cluster_id=self.cluster_id,
            round_number=self.round_number,
            entries=tuple(self._collected.values()),
        )
        self._agg_proofs[payload_digest(aggregated)] = proof
        message = BrdAgg(
            cluster_id=self.cluster_id,
            round_number=self.round_number,
            view_ts=self.view_ts,
            recs=aggregated,
            collection_certificate=proof,  # type: ignore[arg-type]
            attestation_kind="collection",
        )
        self.abeb.broadcast(message)

    # -- replica side ------------------------------------------------------ #
    def _on_agg(self, sender: str, message: BrdAgg) -> None:
        if sender != self.leader or message.view_ts != self.view_ts or self.echoed:
            return
        recs = canonical_recs(message.recs)
        attestation = message.collection_certificate
        if message.attestation_kind == "collection":
            if not isinstance(attestation, CollectionProof):
                return
            if not self.collection_valid(attestation, recs):
                return
            self._agg_proofs[payload_digest(recs)] = attestation
            if not recs:
                # Empty-and-unanimous: a valid collection proof whose union
                # is empty consists of 2f+1 signed *empty* submissions — the
                # quiet-round precondition (module docstring).  Consume the
                # one echo/ready slot for this view, skip Echo, and hand the
                # Ready signature to the leader point-to-point.
                self._go_quiet(attestation)
                return
        else:
            if not self._attestation_valid(recs, attestation, message.attestation_kind):
                return
        self.echoed = True
        digest = self._phase_digest(_ECHO, recs)
        self.abeb.broadcast(
            BrdEcho(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                view_ts=self.view_ts,
                recs=recs,
                echo_signature=self.registry.sign(self.owner, digest),
            )
        )

    def _go_quiet(self, proof: CollectionProof) -> None:
        """Accept an empty-and-unanimous aggregate (skip Echo, Ready-to-leader).

        ``echoed`` and ``readied`` are set *before* the signature leaves, so
        this replica can never also echo a non-empty set in the same view —
        the exclusivity the safety argument rests on.  The stored valid set
        carries the collection proof itself (kind ``"collection"``) so a new
        leader can re-validate and re-propose it after a view change.
        """
        self.quiet = True
        self.echoed = True
        self.readied = True
        self.valid = _ValidSet(
            recs=(), certificate=proof, kind="collection", view_ts=self.view_ts
        )
        self.apl.send(
            self.leader,
            BrdReady(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                view_ts=self.view_ts,
                recs=(),
                ready_signature=self.registry.sign(
                    self.owner, self._phase_digest(_READY, ())
                ),
            ),
        )

    def _on_echo(self, sender: str, message: BrdEcho) -> None:
        recs = canonical_recs(message.recs)
        digest = self._phase_digest(_ECHO, recs)
        signature = message.echo_signature
        if signature is None or signature.digest != digest or signature.signer != sender:
            return
        if sender not in self.members() or not self.registry.verify(signature):
            return
        cert = self._echo_certs.setdefault(payload_digest(recs), Certificate(digest, kind="echo"))
        cert.add(signature)
        if len(cert) >= self.quorum() and not self.readied:
            self._send_ready(recs, cert, kind="echo")

    def _on_ready(self, sender: str, message: BrdReady) -> None:
        recs = canonical_recs(message.recs)
        digest = self._phase_digest(_READY, recs)
        signature = message.ready_signature
        if signature is None or signature.digest != digest or signature.signer != sender:
            return
        if sender not in self.members() or not self.registry.verify(signature):
            return
        key = payload_digest(recs)
        cert = self._ready_certs.setdefault(key, Certificate(digest, kind="ready"))
        cert.add(signature)
        faults = self.faults_fn()
        if len(cert) >= faults + 1 and not self.readied:
            self._send_ready(recs, cert, kind="ready")
        if len(cert) >= self.quorum():
            if not self.delivered:
                self.delivered = True
                self._timer.stop()
                proof = self._agg_proofs.get(key)
                self.on_deliver(recs, proof, cert.copy())
            if self.quiet and self.is_leader() and not self._quiet_deliver_sent and not recs:
                # Quiet round: the leader alone sees the point-to-point Ready
                # signatures; one marker carries the assembled Σ' to everyone.
                self._quiet_deliver_sent = True
                self.abeb.broadcast(
                    BrdQuietDeliver(
                        cluster_id=self.cluster_id,
                        round_number=self.round_number,
                        view_ts=self.view_ts,
                        certificate=cert.copy(),
                    )
                )

    def _on_quiet_deliver(self, sender: str, message: BrdQuietDeliver) -> None:
        """Deliver the empty set on a valid quiet-round Ready certificate.

        The certificate is self-certifying (2f+1 member signatures over the
        Ready digest of the empty set), so delivery is safe regardless of
        which member relayed it — including an old leader after a view
        change.  A replica that never saw the aggregate delivers with a
        ``None`` collection proof, like the full path's attested aggregates.
        """
        if self.delivered or sender not in self.members():
            return
        certificate = message.certificate
        digest = self._phase_digest(_READY, ())
        if not isinstance(certificate, Certificate) or certificate.digest != digest:
            return
        if not self.registry.certificate_valid(
            certificate, self.members(), self.quorum(), digest=digest
        ):
            return
        self.delivered = True
        self.echoed = True
        self.readied = True
        self._timer.stop()
        proof = self._agg_proofs.get(payload_digest(()))
        self.on_deliver((), proof, certificate.copy())

    def _send_ready(self, recs: Tuple[ReconfigRequest, ...], certificate: Certificate, kind: str) -> None:
        self.readied = True
        self.valid = _ValidSet(
            recs=recs, certificate=certificate.copy(), kind=kind, view_ts=self.view_ts
        )
        digest = self._phase_digest(_READY, recs)
        self.abeb.broadcast(
            BrdReady(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                view_ts=self.view_ts,
                recs=recs,
                ready_signature=self.registry.sign(self.owner, digest),
            )
        )

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def collection_valid(self, proof: CollectionProof, aggregated: Tuple[ReconfigRequest, ...]) -> bool:
        """Check Σ: a quorum of distinct, valid submissions whose union is M.

        A pass is remembered on the proof under every input besides the
        proof itself, so the other members checking the same proof object
        in the same view answer from the memo.
        """
        members = self.members()
        quorum = self.quorum()
        aggregated = canonical_recs(aggregated)
        key = (self.registry, self.cluster_id, self.round_number, members, quorum, aggregated)
        if key in proof.verdicts:
            return True
        member_set = set(members)
        senders: set = set()
        union: set = set()
        for entry in proof.entries:
            if entry.sender not in member_set or entry.sender in senders:
                continue
            expected = self._phase_digest(_SUBMIT, canonical_recs(entry.recs))
            if entry.signature.digest != expected or entry.signature.signer != entry.sender:
                continue
            if not self.registry.verify(entry.signature):
                continue
            senders.add(entry.sender)
            union.update(entry.recs)
        if len(senders) < quorum or canonical_recs(union) != aggregated:
            return False
        proof.remember_verdict(key)
        return True

    def _attestation_valid(self, recs, certificate, kind: str) -> bool:
        if kind == "collection":
            # A quiet acceptor's stored valid set is the empty-and-unanimous
            # collection proof itself; a new leader re-validates it like any
            # collection aggregate.
            return (
                isinstance(certificate, CollectionProof)
                and self.collection_valid(certificate, canonical_recs(recs))
            )
        if not isinstance(certificate, Certificate):
            return False
        members = self.members()
        faults = self.faults_fn()
        if kind == "echo":
            digest = self._phase_digest(_ECHO, canonical_recs(recs))
            return self.registry.certificate_valid(certificate, members, 2 * faults + 1, digest=digest)
        if kind == "ready":
            digest = self._phase_digest(_READY, canonical_recs(recs))
            return self.registry.certificate_valid(certificate, members, faults + 1, digest=digest)
        return False

    # ------------------------------------------------------------------ #
    # Timer
    # ------------------------------------------------------------------ #
    def on_timeout(self) -> None:
        """The delivery timer expired: complain about the leader, re-arm."""
        if not self.delivered:
            self.on_complain(self.leader)
            self._timer.start(self.timeout)


__all__ = [
    "ByzantineReliableDissemination",
    "CollectionEntry",
    "CollectionProof",
    "canonical_recs",
    "ready_digest",
    "submit_digest",
]
