"""The total-order-broadcast interface that Hamava's stage 1 builds on.

Alg. 7 of the paper treats the local ordering protocol as a black box ``tob``
with ``broadcast`` / ``deliver`` plus ``new-leader`` / ``complain`` hooks.
Hamava batches transactions, so the engines here order *batches*: one
consensus decision per Hamava round per cluster (this matches the paper's
evaluation setup of batches of 100 transactions per round).

Engines deliver a :class:`Decision` carrying the batch and a commit
certificate with at least ``2f+1`` signatures from the cluster, which stage 2
ships to remote clusters as the proof that the batch was really ordered.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.net.crypto import Certificate, KeyRegistry, Signature
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.message import Envelope, compact_digest, payload_digest
from repro.net.network import Network
from repro.sim.simulator import Simulator


def commit_digest(cluster_id: int, sequence: int, value: Any) -> str:
    """Digest that commit certificates sign: binds cluster, round, and batch."""
    return compact_digest(f"commit|c{cluster_id}|s{sequence}|{payload_digest(value)}")


@dataclass
class Decision:
    """A delivered consensus decision for one sequence number."""

    sequence: int
    value: Any
    certificate: Certificate
    decided_at: float = 0.0


@dataclass
class _Instance:
    """Book-keeping for one in-flight consensus instance."""

    sequence: int
    value: Any = None
    value_digest: Optional[str] = None
    prepared_value: Any = None
    prepared_certificate: Optional[Certificate] = None
    decided: bool = False
    #: Cache of ``commit_digest(cluster, sequence, value)`` together with the
    #: value identity it was computed for (the engines need it once per
    #: vote/phase; a batch digests itself once, but rebuilding the commit
    #: digest still costs four calls).
    commit_digest_value: Any = None
    commit_digest_cache: Optional[str] = None


@dataclass
class ReadLease:
    """Leader-granted read-lease state held by one replica.

    The lease lets a replica answer reads from its local store without
    consulting the ordering protocol.  Safety rests on three rules the
    grantor and holders enforce together:

    1. A grant is only honoured while unexpired **and** issued by the
       leader of the *current* view (``view_ts`` must match) — a holder
       that installs a new leader drops old-view leases immediately.
    2. The leader refreshes grants at half the lease duration, so a
       correct leader's followers stay covered continuously; a leader that
       stops refreshing silently revokes every lease within one duration.
    3. A *new* leader withholds its first grant for one full lease
       duration after taking office.  Writes only execute at the round
       grain after consensus at the (new) leader, so by the time any
       lease-covered read could race a new-leader write, every old-leader
       lease has lapsed.

    In the simulation all replicas share one exact virtual clock, so lease
    expiry needs no clock-drift margin; a real deployment would subtract a
    maximum drift bound from the granted duration when checking validity.
    """

    expires_at: float = 0.0
    view_ts: int = -1

    def install(self, view_ts: int, granted_at: float, duration: float) -> None:
        """Adopt a grant (keeps the latest expiry for the granting view)."""
        if view_ts < self.view_ts:
            return  # stale grant from a deposed leader
        if view_ts > self.view_ts:
            self.view_ts = view_ts
            self.expires_at = 0.0
        self.expires_at = max(self.expires_at, granted_at + duration)

    def valid(self, now: float, current_view_ts: int) -> bool:
        """Whether a read may be served locally right now."""
        return self.view_ts == current_view_ts and now < self.expires_at

    def revoke(self) -> None:
        """Drop the lease (on leader change or suspicion)."""
        self.expires_at = 0.0


class TotalOrderBroadcast(ABC):
    """The skeleton every leader-based ordering engine shares.

    An engine is a strategy over this class: it declares its message
    ``HANDLERS``, implements its own voting phases, and fills in four hooks
    (:meth:`_make_proposal`, :meth:`_make_report`, :meth:`_recovered_value`,
    :meth:`_make_catchup_reply`).  Everything an engine would otherwise
    repeat lives here once: the one-proposal-per-view guard, message
    dispatch, the leader watchdogs, commit-certificate assembly, the whole
    recovery path (view-change reports, report quorum → re-proposal,
    catch-up of laggards by any decided peer within the window), and the
    stable watermark below which every per-sequence table is retired
    (:meth:`retire`).

    Args:
        owner: Replica id this engine instance runs at.
        cluster_id: Numeric id of the local cluster.
        members_fn: Callable returning the *current* cluster membership as a
            **sorted tuple** (the ``members_fn`` contract, shared by the
            engines, BRD, and leader election).  A callable (not a list) so
            reconfiguration is picked up each use; sortedness is the
            supplier's responsibility — consumers never re-sort, because
            membership order decides leader rotation and re-sorting per
            message is measurable (~9k defensive sorts per macro run before
            the contract was tightened).  Replicas supply their per-view
            cached sorted views; test stubs must use sorted tuples too (see
            ``tests/helpers.py``).
        faults_fn: Callable returning the current failure threshold ``f``.
        network: Simulated network.
        simulator: Simulation kernel.
        instance_timeout: Seconds a replica waits for a decision before
            complaining about the local leader.
        on_deliver: Callback ``(Decision) -> None``.
        on_complain: Callback ``(leader_id) -> None`` used to feed Alg. 8.
        round_marker_fn: Optional ``(sequence) -> marker | None``.  Called
            when this replica sends its commit-phase vote; a non-``None``
            marker rides the vote to its receivers.  Hamava piggybacks the
            round's BRD submission (usually the empty set) here, eliding the
            separate ``BrdSubmit`` message on the steady-state path.
        on_round_marker: Optional ``(sequence, sender, marker) -> None``.
            Invoked at a receiver for every commit-phase vote carrying a
            marker (the leader for leader-collected engines; everyone for
            all-to-all engines).  Markers are opaque to the engine.
        decide_extra_fn: Optional ``(sequence) -> extra | None``.  Asked by
            engines that broadcast an explicit decide message, just before
            that broadcast; a non-``None`` value rides the decide.  Hamava
            attaches the quiet-round empty-unanimity proof (``core/brd.py``).
        on_decide_extra: Optional ``(sequence, sender, extra) -> None``.
            Invoked at a receiver after a decide carrying an extra delivers.
        fetch_value: Optional ``(sequence) -> value | None``.  Last resort of
            a new leader re-proposing a sequence nobody reported a value for.
        transfer_state: Optional ``(reporter) -> None``.  Answers a report
            for a retired sequence, which no decision here can answer any
            more; Hamava sends the reporter its state (``CurrState``).
    """

    #: Message class → name of the method consuming it (set by subclasses).
    #: Names rather than bound methods, so the lookup honours overrides in
    #: subclasses and per-instance patches (fault-injection tests).
    HANDLERS: Dict[type, str] = {}
    #: ``tuple(HANDLERS)`` — what the hosting replica routes to this engine.
    MESSAGE_TYPES: tuple = ()
    #: The per-sequence tables :meth:`retire` sweeps, by attribute name; an
    #: engine adds its own.  Each is a dict or a set keyed by a sequence or
    #: by a tuple that starts with one.
    SEQUENCE_TABLES: tuple = ("decisions", "_instances", "_proposed_views", "_commit_certs", "_reports")

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.MESSAGE_TYPES = tuple(cls.HANDLERS)

    def __init__(
        self,
        owner: str,
        cluster_id: int,
        members_fn: Callable[[], List[str]],
        faults_fn: Callable[[], int],
        network: Network,
        simulator: Simulator,
        instance_timeout: float = 20.0,
        on_deliver: Optional[Callable[[Decision], None]] = None,
        on_complain: Optional[Callable[[str], None]] = None,
        round_marker_fn: Optional[Callable[[int], Any]] = None,
        on_round_marker: Optional[Callable[[int, str, Any], None]] = None,
        decide_extra_fn: Optional[Callable[[int], Any]] = None,
        on_decide_extra: Optional[Callable[[int, str, Any], None]] = None,
        fetch_value: Optional[Callable[[int], Any]] = None,
        transfer_state: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.owner = owner
        self.cluster_id = cluster_id
        self.members_fn = members_fn
        self.faults_fn = faults_fn
        self.network = network
        self.simulator = simulator
        self.instance_timeout = instance_timeout
        self.on_deliver = on_deliver or (lambda decision: None)
        self.on_complain = on_complain or (lambda leader: None)
        self.round_marker_fn = round_marker_fn
        self.on_round_marker = on_round_marker
        self.decide_extra_fn = decide_extra_fn
        self.on_decide_extra = on_decide_extra
        self.fetch_value = fetch_value
        self.transfer_state = transfer_state
        self.apl = AuthenticatedPerfectLink(owner, network)
        self.abeb = AuthenticatedBestEffortBroadcast(owner, network, members_fn)
        self.leader: str = self.members()[0] if self.members() else owner
        self.view_ts: int = 0
        #: The stable watermark: every sequence at or below it is retired.
        self.watermark: int = 0
        self.decisions: dict[int, Decision] = {}
        self._instances: dict[int, _Instance] = {}
        #: (sequence, view) pairs this leader already proposed for (see
        #: :meth:`propose` — one proposal per view, no self-equivocation).
        self._proposed_views: Set[tuple] = set()
        #: Commit-digest certificates per (sequence, view), assembled from
        #: the members' commit-vote signatures.
        self._commit_certs: Dict[tuple, Certificate] = {}
        #: View-change reports per (sequence, view), keyed by sender so a
        #: laggard re-sending its report cannot double-count toward quorum.
        self._reports: Dict[tuple, Dict[str, Any]] = {}
        #: One lazy-deadline pool watches every in-flight instance: arming a
        #: leader watchdog is a dict write, disarming on decide a dict pop
        #: (see :class:`~repro.sim.simulator.DeadlinePool`) — replacing the
        #: per-instance Timer object and its schedule+cancel pair per round.
        self._watchdogs = simulator.deadline_pool(self._on_timeout, name=f"{owner}:tob")

    # ------------------------------------------------------------------ #
    # Membership helpers
    # ------------------------------------------------------------------ #
    @property
    def registry(self) -> KeyRegistry:
        """The key registry shared by the network."""
        return self.network.registry

    def members(self) -> Sequence[str]:
        """Current cluster membership (a sorted tuple, per the contract).

        No defensive re-sort: the replica supplies a cached sorted view, the
        engines only use this for quorum checks (order-insensitive) and the
        initial leader pick, and re-sorting per message is measurable.
        """
        return self.members_fn()

    def faults(self) -> int:
        """Current failure threshold ``f`` of the local cluster."""
        return self.faults_fn()

    def quorum(self) -> int:
        """Quorum size ``2f + 1``."""
        return 2 * self.faults() + 1

    def is_leader(self) -> bool:
        """Whether this replica currently leads the cluster."""
        return self.owner == self.leader

    # ------------------------------------------------------------------ #
    # Proposing and message dispatch
    # ------------------------------------------------------------------ #
    def propose(self, sequence: int, value: Any) -> None:
        """Leader entry point: start ordering ``value`` at ``sequence``.

        At most one proposal per (sequence, view): a second ``propose`` in
        the same view (e.g. the new leader's batch timer racing its own
        view-change re-proposal) must not overwrite the in-flight value —
        replicas vote once per phase per view, so a self-equivocating
        leader would strand the instance with votes split across digests.
        A non-leader only records its local batch.
        """
        instance = self.instance(sequence)
        if instance.decided:
            return
        if not self.is_leader():
            instance.value = value
            instance.value_digest = payload_digest(value)
            return
        key = (sequence, self.view_ts)
        if key in self._proposed_views:
            return
        self._proposed_views.add(key)
        instance.value = value
        instance.value_digest = payload_digest(value)
        self.start_instance(sequence)
        self.abeb.broadcast(self._make_proposal(sequence, value))

    def on_message(self, sender: str, envelope: Envelope) -> bool:
        """Consume an engine message.  Returns ``True`` if it was handled."""
        payload = envelope.payload
        handler = self.HANDLERS.get(type(payload))
        if handler is None or payload.cluster_id != self.cluster_id:
            return False
        if payload.sequence <= self.watermark and handler != "_on_report":
            # Retired: a late vote or proposal must not re-create the
            # instance (a leak, and a second vote on an executed sequence).
            return True
        getattr(self, handler)(sender, payload)
        return True

    # ------------------------------------------------------------------ #
    # Instances
    # ------------------------------------------------------------------ #
    def instance(self, sequence: int) -> _Instance:
        """Get or create the book-keeping record for a sequence number."""
        instance = self._instances.get(sequence)
        if instance is None:
            instance = self._instances[sequence] = _Instance(sequence=sequence)
        return instance

    def start_instance(self, sequence: int) -> None:
        """Arm the leader watchdog for this instance."""
        instance = self.instance(sequence)
        if instance.decided:
            return
        self._watchdogs.arm(sequence, self.instance_timeout)

    def _on_timeout(self, sequence: int) -> None:
        instance = self._instances.get(sequence)
        if instance is None or instance.decided:
            return
        self.on_complain(self.leader)
        # A timed-out instance may be one the rest of the cluster already
        # decided (a partial decide across a view change): re-report it to
        # the cluster — any decided peer answers with a value-carrying,
        # self-certifying decision — and keep watching until it resolves.
        self.request_catchup(sequence)
        self._watchdogs.arm(sequence, self.instance_timeout)

    def set_timer_rate(self, rate: float) -> None:
        """Skew every engine timer pool (gray-failure clock-skew faults).

        Subclasses owning additional deadline pools (e.g. the chained
        engine's decide-grace pool) extend this so a clock-skew event
        reaches all of them.
        """
        self._watchdogs.rate = rate

    def stop_instance_timer(self, sequence: int) -> None:
        """Disarm the leader watchdog for a decided instance."""
        self._watchdogs.disarm(sequence)

    def _decide(self, sequence: int, value: Any, certificate: Certificate) -> None:
        instance = self.instance(sequence)
        if instance.decided:
            return
        instance.decided = True
        self.stop_instance_timer(sequence)
        decision = Decision(
            sequence=sequence,
            value=value,
            certificate=certificate,
            decided_at=self.simulator.now,
        )
        self.decisions[sequence] = decision
        self.on_deliver(decision)

    def instance_commit_digest(self, instance: _Instance) -> str:
        """``commit_digest`` over an instance's value, cached per value.

        Engines need it once per commit vote, decide broadcast, and
        certificate check, so it is computed once per (instance, value
        identity) instead.
        """
        value = instance.value
        digest = instance.commit_digest_cache
        if digest is None or instance.commit_digest_value is not value:
            digest = commit_digest(self.cluster_id, instance.sequence, value)
            instance.commit_digest_value = value
            instance.commit_digest_cache = digest
        return digest

    def _add_commit_signature(
        self, instance: _Instance, view: int, signature: Optional[Signature]
    ) -> Certificate:
        """Collect one commit vote; returns the (sequence, view) certificate.

        Only a verified signature by a *current member* over the instance's
        commit digest is admitted, so ``len(certificate) >= quorum()`` means
        what stage 2 and remote clusters will re-check: ``2f+1`` members
        signed — a registered outsider's signature never counts.
        """
        digest = self.instance_commit_digest(instance)
        certificate = self._commit_certs.setdefault(
            (instance.sequence, view), Certificate(digest, kind="commit")
        )
        if (
            signature is not None
            and signature.digest == digest
            and signature.signer in self.members()
            and self.registry.verify(signature)
        ):
            certificate.add(signature)
        return certificate

    # ------------------------------------------------------------------ #
    # Leader handling, view change and catch-up
    # ------------------------------------------------------------------ #
    def new_leader(self, leader: str, view_ts: int) -> None:
        """Install a new leader (invoked by Alg. 8 after leader election)."""
        if view_ts <= self.view_ts and leader == self.leader:
            return
        self.leader = leader
        self.view_ts = view_ts
        self.on_view_change()

    def on_view_change(self) -> None:
        """Report pending instances to the new leader and re-arm timers."""
        for sequence in list(self.pending_sequences()):
            self.start_instance(sequence)
            self.apl.send(self.leader, self._make_report(sequence))

    def request_catchup(self, sequence: int) -> None:
        """Re-report a stuck instance to the whole cluster.

        Broadcast, not leader-only: when a quorum already decided the
        sequence, the decided replicas no longer consider it pending and
        will never re-report it — they (not the possibly equally-stuck
        leader) hold the decision this replica is missing.
        """
        self.abeb.broadcast(self._make_report(sequence))

    def retire(self, sequence: int, *host_tables) -> None:
        """Raise the stable watermark to ``sequence``; forget everything at or below it.

        The host calls this once it holds proof that a quorum has moved past
        ``sequence`` (for Hamava, a BRD delivery two rounds later), and may
        hand in its own per-sequence tables (dicts or sets keyed by
        sequence) to be swept with the engine's.  Later messages for a
        retired sequence are dropped on arrival, except reports, which
        :meth:`_on_report` answers with a state transfer.  The sweep makes
        no call per entry: it runs at every replica, and each call counts in
        the cost of every operation.
        """
        if sequence <= self.watermark:
            return
        self.watermark = sequence
        for table in (*map(self.__dict__.get, self.SEQUENCE_TABLES), *host_tables):
            for key in list(table):
                if (key[0] if key.__class__ is tuple else key) <= sequence:
                    if table.__class__ is dict:
                        del table[key]
                    else:
                        table -= {key}

    def _on_report(self, sender: str, report: Any) -> None:
        """Handle a view-change / catch-up report (any engine's)."""
        if report.sequence <= self.watermark:
            # The reporter is behind the window this replica keeps: no
            # decision is left to answer with, so it gets our state instead.
            if sender != self.owner and self.transfer_state is not None:
                self.transfer_state(sender)
            return
        decision = self.decisions.get(report.sequence)
        if decision is not None:
            # The reporter is behind a decision this replica already holds
            # (it missed a partial decide across a view change); answer with
            # a value-carrying decide it can verify and adopt.  Any decided
            # replica answers — the stuck one may *be* the leader, in which
            # case only its peers can repair it.
            if sender != self.owner:
                self.apl.send(sender, self._make_catchup_reply(decision))
            return
        if not self.is_leader() or report.view != self.view_ts:
            return
        instance = self.instance(report.sequence)
        key = (report.sequence, report.view)
        reports = self._reports.setdefault(key, {})
        reports[sender] = report  # dedup: re-sent reports must not double-count
        if len(reports) < self.quorum():
            return
        value = self._recovered_value(report.sequence, reports)
        if value is None:
            value = instance.value
        if value is None and self.fetch_value is not None:
            value = self.fetch_value(report.sequence)
        if value is None:
            return
        del self._reports[key]
        self.propose(report.sequence, value)

    def _on_catchup_reply(self, sender: str, reply: Any) -> None:
        """Adopt a peer's decided value after verifying its commit certificate.

        The replica may never have seen the winning proposal (it voted for a
        different one, or none, across a view change), so the value arrives
        alongside the certificate and the certificate is checked against
        *that* value — ``2f+1`` member signatures over the commit digest
        prove the cluster decided it.  Replies are therefore accepted
        regardless of the local view or sender: the laggard's whole problem
        is that its view of the leader is behind.
        """
        instance = self.instance(reply.sequence)
        if instance.decided or reply.value is None:
            return
        digest = commit_digest(self.cluster_id, reply.sequence, reply.value)
        if not self.registry.certificate_valid(
            reply.certificate, self.members(), self.quorum(), digest=digest
        ):
            return
        instance.value = reply.value
        instance.value_digest = payload_digest(reply.value)
        instance.commit_digest_value = reply.value
        instance.commit_digest_cache = digest
        self._decide(reply.sequence, reply.value, reply.certificate)

    # ------------------------------------------------------------------ #
    # What an engine must supply (besides its HANDLERS and voting phases)
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _make_proposal(self, sequence: int, value: Any) -> Any:
        """The message a leader broadcasts to start ordering ``value``."""

    @abstractmethod
    def _make_report(self, sequence: int) -> Any:
        """This replica's view-change / catch-up report for ``sequence``."""

    @abstractmethod
    def _recovered_value(self, sequence: int, reports: Dict[str, Any]) -> Any:
        """The value a report quorum obliges the new leader to re-propose."""

    @abstractmethod
    def _make_catchup_reply(self, decision: Decision) -> Any:
        """A value-carrying decide for a laggard's :meth:`_on_catchup_reply`.

        Any message with ``sequence``, ``value`` and ``certificate`` fields.
        """

    # ------------------------------------------------------------------ #
    # Introspection for tests and metrics
    # ------------------------------------------------------------------ #
    def pending_sequences(self) -> Iterable[int]:
        """Sequences started but not yet decided at this replica."""
        return [seq for seq, inst in self._instances.items() if not inst.decided]


__all__ = [
    "Decision",
    "ReadLease",
    "TotalOrderBroadcast",
    "commit_digest",
]
