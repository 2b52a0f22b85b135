"""The Hamava replica: stages, rounds, reconfiguration, and execution.

One :class:`HamavaReplica` is a member of one cluster.  Each round it runs
the paper's three stages:

1. **Intra-cluster replication** — the cluster's local ordering engine
   (HotStuff- or BFT-SMaRt-like) orders a batch of transactions, while the
   reconfiguration workflow collects join/leave requests and uniformly
   disseminates them with BRD (Alg. 3/4/5/6), in parallel with ordering.
2. **Inter-cluster communication** — the leader ships the cluster's
   operations plus certificates to ``f_j + 1`` replicas of every remote
   cluster (Alg. 1); missing remote operations trigger the heterogeneous
   remote leader change (Alg. 2).
3. **Execution** — operations from all clusters are executed in the
   predefined cluster order, reconfigurations update the membership view and
   failure thresholds for the next round, and joining replicas are
   kick-started with a state transfer (Alg. 10).

The replica is consensus-agnostic: the ordering engine is chosen by name in
:class:`~repro.core.config.HamavaConfig` (``"hotstuff"`` or ``"bftsmart"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.consensus.interface import Decision, ReadLease, commit_digest
from repro.consensus.leader_election import ElectionComplaint, LeaderElection
from repro.consensus.registry import make_engine
from repro.core.brd import ByzantineReliableDissemination, canonical_recs, ready_digest
from repro.core.config import HamavaConfig, SystemConfig, failure_threshold
from repro.core.messages import (
    ClientBatchRequest,
    ClientBatchResponse,
    ClientRequest,
    ClientResponse,
    ClusterComplaint,
    CurrState,
    Inter,
    LComplaint,
    LocalShare,
    RComplaint,
    ReadLeaseGrant,
    ReconfigAck,
    RequestJoin,
    RequestLeave,
)
from repro.core.reconfiguration import ReconfigurationCollector, RequestTracker
from repro.core.remote_leader_change import RemoteLeaderChange
from repro.core.statemachine import ExecutionLedger, KeyValueStore, LedgerView
from repro.core.types import (
    OperationsBundle,
    ReconfigRequest,
    Transaction,
    join_request,
    leave_request,
)
from repro.net.message import Envelope
from repro.net.links import AuthenticatedBestEffortBroadcast, AuthenticatedPerfectLink
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator

#: Replica lifecycle modes.
MODE_ACTIVE = "active"
MODE_JOINING = "joining"
MODE_IDLE = "idle"
MODE_LEFT = "left"

#: Virtual CPU cost of executing one operation in stage 3 (seconds).
EXECUTION_COST_PER_OP = 0.00001


@dataclass
class ByzantineBehavior:
    """Byzantine behaviour switches for fault-injection experiments.

    Attributes:
        silent_inter_after: From this virtual time on, the replica — when it
            is the leader — completes stage 1 correctly but never sends the
            inter-cluster broadcast (the E4.3 attack that the remote leader
            change protocol detects).
    """

    silent_inter_after: Optional[float] = None

    def suppress_inter(self, now: float) -> bool:
        """Whether the inter-cluster broadcast should be suppressed now."""
        return self.silent_inter_after is not None and now >= self.silent_inter_after


@dataclass
class _RoundState:
    """Book-keeping for the round currently in progress."""

    round_number: int
    started_at: float
    local_transactions: Optional[List[Transaction]] = None
    local_txn_certificate: Optional[Any] = None
    local_reconfigs: Optional[Tuple[ReconfigRequest, ...]] = None
    recs_collection_certificate: Optional[Any] = None
    recs_ready_certificate: Optional[Any] = None
    stage1_done_at: Optional[float] = None
    stage2_done_at: Optional[float] = None
    bundle: Optional[OperationsBundle] = None
    inter_sent: bool = False


class HamavaReplica(Process):
    """One replica of the Hamava replicated system.

    Args:
        replica_id: Globally unique process id.
        cluster_id: The cluster this replica belongs to.
        system_config: Initial configuration of all clusters.
        network: The simulated network.
        simulator: The simulation kernel.
        config: Protocol parameters.
        metrics: Optional metrics sink (duck-typed; see
            :class:`repro.harness.metrics.MetricsCollector`).
        byzantine: Optional Byzantine behaviour switches.
        mode: ``"active"`` for initial members, ``"idle"`` for processes
            created ahead of a later join.
        ledger: The execution ledger shared by every replica of the
            simulation shard (a deployment passes its shard's); a replica
            built on its own gets a private one.
    """

    def __init__(
        self,
        replica_id: str,
        cluster_id: int,
        system_config: SystemConfig,
        network: Network,
        simulator: Simulator,
        config: Optional[HamavaConfig] = None,
        metrics: Optional[Any] = None,
        byzantine: Optional[ByzantineBehavior] = None,
        mode: str = MODE_ACTIVE,
        ledger: Optional[ExecutionLedger] = None,
    ) -> None:
        super().__init__(replica_id, simulator)
        self.cluster_id = cluster_id
        self.config = config or HamavaConfig()
        self.metrics = metrics
        self.byzantine = byzantine or ByzantineBehavior()
        self.mode = mode
        self.is_reporter = False

        # Membership view: cluster id -> set of member ids.
        self.view: Dict[int, Set[str]] = system_config.initial_view()
        self.round_number = 1
        self.kv = KeyValueStore(ledger)

        # Per-view-epoch caches of the sorted membership tuples and the
        # sorted cluster order.  ``members()``/``local_members()`` are called
        # for every message sent or validated, so re-sorting the view per
        # call is pure overhead; the caches are invalidated whenever the view
        # changes (reconfiguration execution, state-transfer adoption).  The
        # cached values are *tuples* — the ``members_fn`` contract (see
        # ``consensus/interface.py``) promises the engines, BRD, leader
        # election, and RLC an immutable sorted sequence they never re-sort.
        self._members_cache: Dict[int, Tuple[str, ...]] = {}
        self._faults_cache: Dict[int, int] = {}
        self._view_order_cache: Optional[List[int]] = None

        network.register(self, system_config.region_of_cluster(cluster_id))

        self.apl = AuthenticatedPerfectLink(replica_id, network)
        self.abeb = AuthenticatedBestEffortBroadcast(replica_id, network, self.local_members)

        # Leader state (Alg. 7/8).
        self.leader: str = self.local_members()[0]
        self.leader_ts: int = 0
        self.last_leader_change: float = 0.0

        # Sub-protocol modules.
        self.le = LeaderElection(
            owner=replica_id,
            cluster_id=cluster_id,
            members_fn=self.local_members,
            faults_fn=self.local_faults,
            network=network,
            on_new_leader=self._on_new_leader,
        )
        self.tob = make_engine(
            self.config.engine,
            replica_id,
            cluster_id,
            self.local_members,
            self.local_faults,
            network,
            simulator,
            self.config.consensus,
            on_deliver=self._on_tob_deliver,
            on_complain=self._complain,
            fetch_value=self._fetch_batch,
            round_marker_fn=self._brd_round_marker,
            on_round_marker=self._on_brd_round_marker,
            decide_extra_fn=self._brd_decide_extra,
            on_decide_extra=self._on_brd_decide_extra,
        )
        self.collector = ReconfigurationCollector(
            owner=replica_id,
            cluster_id=cluster_id,
            network=network,
            members_fn=self.local_members,
            round_fn=lambda: self.round_number,
        )
        self.rlc = RemoteLeaderChange(
            owner=replica_id,
            cluster_id=cluster_id,
            view_fn=lambda: self.view,
            members_of_fn=self.members,
            faults_fn=self.faults,
            round_fn=lambda: self.round_number,
            has_operations_fn=lambda cid: cid in self.operations,
            network=network,
            simulator=simulator,
            timeout=self.config.remote_timeout,
            epsilon=self.config.leader_change_epsilon,
            on_next_leader=self.le.next_leader,
            last_leader_change_fn=lambda: self.last_leader_change,
        )
        self._brd_instances: Dict[int, ByzantineReliableDissemination] = {}
        #: Shared lazy-deadline pool for the per-round BRD delivery timers
        #: (keyed by round number); expirations route back to the instance.
        self._brd_timer_pool = simulator.deadline_pool(
            self._on_brd_timer, name=f"{replica_id}:brd"
        )

        # Round state.
        self.operations: Dict[int, OperationsBundle] = {}
        self._round_state = _RoundState(round_number=self.round_number, started_at=0.0)
        #: ``(cluster_id, round)`` keys of LocalShares accepted from peers —
        #: a later-indexed Inter receiver skips its own re-broadcast when the
        #: first-indexed receiver's share already arrived (see
        #: ``HamavaConfig.inter_share_grace``).
        self._peer_shared: Set[Tuple[int, int]] = set()
        self._previous_bundle: Optional[OperationsBundle] = None
        self._tob_decisions: Dict[int, Decision] = {}
        self._buffered_shares: Dict[int, List[Tuple[str, Envelope]]] = {}
        self._buffered_brd: Dict[int, List[Tuple[str, Envelope]]] = {}

        # Client transaction plumbing.
        self._leader_queue: Deque[Transaction] = deque()
        self._queued_ids: Set[str] = set()
        self._forwarded: Dict[str, Transaction] = {}
        self._proposed_rounds: Set[int] = set()
        self._current_batch: Dict[int, List[Transaction]] = {}
        self._batch_timer = self.new_timer(self.config.batch_timeout, self._on_batch_timeout, "batch")

        # Open-loop client boundary (strictly opt-in; see workload/population.py).
        # Clients that speak the batch protocol get their write responses
        # accumulated and flushed once per execution instead of one envelope
        # per transaction; the closed-loop per-transaction path is untouched.
        self._batch_clients: Set[str] = set()
        self._pending_batch: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        # Read-lease state (active only when ``config.read_leases``).
        self._read_lease = ReadLease(duration=self.config.lease_duration)
        self._lease_hold_until = 0.0
        self._lease_tick_armed = False
        self.lease_hits = 0
        self.lease_misses = 0

        # Join/leave requester state.
        self._join_tracker: Optional[RequestTracker] = None
        self._leave_tracker: Optional[RequestTracker] = None
        self._join_retry_timer = self.new_timer(1.0, self._retry_join, "join-retry")
        self._currstate_votes: Dict[Tuple[int, Tuple[str, ...]], Set[str]] = {}
        self._currstate_snapshots: Dict[Tuple[int, Tuple[str, ...]], CurrState] = {}
        self.joined_at: Optional[float] = None
        self.left_at: Optional[float] = None

        # Statistics exposed for tests and metrics.
        self.executed_operations = 0
        self.executed_rounds = 0
        self.reconfigs_applied: List[Tuple[int, ReconfigRequest]] = []
        #: ``(cluster_id, round)`` shares this replica re-broadcast because
        #: the first-indexed Inter receiver's did not arrive within
        #: ``inter_share_grace`` (see ``_share_grace_expired``).
        self.share_fallback_broadcasts = 0

        # Message dispatch table: exact payload type -> (active_only,
        # wants_envelope, bound handler).  One dict probe replaces the
        # isinstance ladder on the per-delivery hot path.  Every payload class
        # an engine or sub-protocol sends is listed (``Ch*`` subclasses
        # register themselves through the engine's ``HANDLERS``).
        self._handler_table: Dict[type, Tuple[bool, bool, Any]] = {
            ClientRequest: (False, False, self._on_client_request),
            ClientBatchRequest: (False, False, self._on_client_batch),
            ReadLeaseGrant: (True, False, self._on_lease_grant),
            ReconfigAck: (False, False, self._on_ack),
            CurrState: (False, False, self._on_curr_state),
            Inter: (True, False, self._on_inter),
            LocalShare: (True, False, self._on_local_share),
            ElectionComplaint: (True, True, self.le.on_message),
        }
        for message_type in (LComplaint, RComplaint, ClusterComplaint):
            self._handler_table[message_type] = (True, True, self.rlc.on_message)
        for message_type in self.tob.MESSAGE_TYPES:
            self._handler_table[message_type] = (True, True, self.tob.on_message)
        for message_type in ByzantineReliableDissemination.MESSAGE_TYPES:
            self._handler_table[message_type] = (True, True, self._dispatch_brd)

    # ------------------------------------------------------------------ #
    # Membership helpers
    # ------------------------------------------------------------------ #
    @property
    def execution_log(self) -> LedgerView:
        """Ids of the transactions this replica executed, in order."""
        return self.kv.execution_log

    def local_members(self) -> Tuple[str, ...]:
        """Sorted member tuple of the local cluster under the current view."""
        cache = self._members_cache
        members = cache.get(self.cluster_id)
        if members is None:
            members = cache[self.cluster_id] = tuple(sorted(self.view[self.cluster_id]))
        return members

    def members(self, cluster_id: int) -> Tuple[str, ...]:
        """Sorted member tuple of any cluster under the current view."""
        cache = self._members_cache
        members = cache.get(cluster_id)
        if members is None:
            members = cache[cluster_id] = tuple(sorted(self.view[cluster_id]))
        return members

    def _sorted_view_ids(self) -> List[int]:
        """Sorted cluster ids of the current view (cached per view epoch)."""
        order = self._view_order_cache
        if order is None:
            order = self._view_order_cache = sorted(self.view)
        return order

    def _invalidate_view_caches(self) -> None:
        self._members_cache.clear()
        self._faults_cache.clear()
        self._view_order_cache = None

    def faults(self, cluster_id: int) -> int:
        """Failure threshold ``f_j`` of a cluster under the current view.

        Cached per view epoch alongside the member tuples: quorum checks ask
        for ``f`` on every vote and share, and the threshold only changes
        when the view does.
        """
        cache = self._faults_cache
        faults = cache.get(cluster_id)
        if faults is None:
            faults = cache[cluster_id] = failure_threshold(len(self.view[cluster_id]))
        return faults

    def local_faults(self) -> int:
        """Failure threshold of the local cluster."""
        return self.faults(self.cluster_id)

    def is_leader(self) -> bool:
        """Whether this replica currently leads its cluster."""
        return self.leader == self.process_id

    def cluster_count(self) -> int:
        """Number of clusters in the current view."""
        return len(self.view)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Begin round 1 (active members) or stay idle until a join begins."""
        if self.mode == MODE_ACTIVE:
            self._arm_lease_tick()
            self._start_round()

    def set_timer_rate(self, rate: float) -> None:
        """Skew every protocol clock, including the shared deadline pools.

        The base class only reaches timers created via ``new_timer``; the
        replica also owns lazy deadline pools (BRD delivery, TOB watchdogs,
        remote-leader-change watches) that must tick at the skewed rate.
        """
        super().set_timer_rate(rate)
        self._brd_timer_pool.rate = rate
        # Engines own their pools (the chained engine has a decide-grace
        # pool besides the watchdogs); let them skew everything they hold.
        self.tob.set_timer_rate(rate)
        watch_pool = getattr(self.rlc, "_watch_pool", None)
        if watch_pool is not None:
            watch_pool.rate = rate

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #
    def _start_round(self) -> None:
        self._round_state = _RoundState(round_number=self.round_number, started_at=self.now)
        self.operations = {}
        if self._peer_shared:
            horizon = self.round_number - 1
            self._peer_shared = {key for key in self._peer_shared if key[1] >= horizon}
        self.rlc.start_round()
        self._create_brd()
        self.tob.start_instance(self.round_number)
        if self.is_leader() and self.round_number not in self._proposed_rounds:
            if len(self._leader_queue) >= self.config.batch_size:
                self._propose_batch()
            else:
                self._batch_timer.start(self.config.batch_timeout)
        # Re-apply any decision or shares that arrived ahead of this round.
        if self.round_number in self._tob_decisions:
            self._handle_local_decision(self._tob_decisions[self.round_number])
        for sender, envelope in self._buffered_shares.pop(self.round_number, []):
            self._on_local_share(sender, envelope.payload)
        for sender, envelope in self._buffered_brd.pop(self.round_number, []):
            self._brd_instances[self.round_number].on_message(sender, envelope)

    def _create_brd(self) -> None:
        round_number = self.round_number
        brd = ByzantineReliableDissemination(
            owner=self.process_id,
            cluster_id=self.cluster_id,
            round_number=round_number,
            members_fn=self.local_members,
            faults_fn=self.local_faults,
            network=self.network,
            simulator=self.simulator,
            leader=self.leader,
            view_ts=self.leader_ts,
            timeout=self.config.brd_timeout,
            on_deliver=lambda recs, proof, cert, rn=round_number: self._on_brd_deliver(
                rn, recs, proof, cert
            ),
            on_complain=self._complain,
            timer_pool=self._brd_timer_pool,
        )
        self._brd_instances[round_number] = brd
        # Garbage-collect instances older than the previous round.
        for old_round in [r for r in self._brd_instances if r < round_number - 1]:
            self._brd_instances[old_round].stop()
            del self._brd_instances[old_round]

    # ------------------------------------------------------------------ #
    # Stage 1a: local ordering
    # ------------------------------------------------------------------ #
    def _on_batch_timeout(self) -> None:
        if self.mode == MODE_ACTIVE and self.is_leader():
            self._propose_batch()

    def _take_batch(self) -> List[Transaction]:
        batch: List[Transaction] = []
        while self._leader_queue and len(batch) < self.config.batch_size:
            transaction = self._leader_queue.popleft()
            self._queued_ids.discard(transaction.txn_id)
            if self.kv.executed(transaction.txn_id):
                continue
            batch.append(transaction)
        return batch

    def _propose_batch(self) -> None:
        if self.round_number in self._proposed_rounds:
            return
        if not self.is_leader():
            return
        self._proposed_rounds.add(self.round_number)
        batch = self._take_batch()
        self._current_batch[self.round_number] = batch
        self.tob.propose(self.round_number, batch)

    def _fetch_batch(self, sequence: int) -> List[Transaction]:
        if sequence in self._current_batch:
            return self._current_batch[sequence]
        batch = self._take_batch()
        self._current_batch[sequence] = batch
        return batch

    def _on_tob_deliver(self, decision: Decision) -> None:
        self._tob_decisions[decision.sequence] = decision
        if decision.sequence == self.round_number:
            self._handle_local_decision(decision)

    def _handle_local_decision(self, decision: Decision) -> None:
        state = self._round_state
        if state.local_transactions is not None:
            return
        # The decided value itself, not a copy: it is the batch object every
        # replica of the cluster (and, in the leader's bundle, every remote
        # executor) shares, so its execution plan is computed once.
        state.local_transactions = decision.value
        state.local_txn_certificate = decision.certificate
        # Stage 1b (dissemination): submit our collected reconfiguration set
        # (a no-op beyond arming the timer when it already rode this view's
        # commit vote as a round marker), and — as the leader — aggregate
        # whatever quorum the markers collected (quiet proofs were already
        # taken at the decide broadcast; this covers mixed rounds and
        # engines without a decide message).
        if self.config.parallel_reconfig:
            brd = self._brd_instances[self.round_number]
            brd.broadcast(self.collector.current_recs())
            if self.is_leader():
                brd.flush_aggregate()
        else:
            self._on_brd_deliver(self.round_number, (), None, None)
        self._maybe_finish_stage1()

    # -- BRD <-> consensus piggyback (quiet rounds; see core/brd.py) ------ #
    def _brd_round_marker(self, sequence: int):
        if not self.config.parallel_reconfig:
            return None
        brd = self._brd_instances.get(sequence)
        if brd is None:
            return None
        return brd.make_marker(self.collector.current_recs())

    def _on_brd_round_marker(self, sequence: int, sender: str, marker) -> None:
        brd = self._brd_instances.get(sequence)
        if brd is not None:
            brd.on_marker(sender, marker)

    def _brd_decide_extra(self, sequence: int):
        if not self.config.parallel_reconfig:
            return None
        brd = self._brd_instances.get(sequence)
        return None if brd is None else brd.take_quiet_proof()

    def _on_brd_decide_extra(self, sequence: int, sender: str, extra) -> None:
        brd = self._brd_instances.get(sequence)
        if brd is not None:
            brd.on_quiet_aggregate(sender, extra)

    # ------------------------------------------------------------------ #
    # Stage 1b: reconfiguration dissemination
    # ------------------------------------------------------------------ #
    def _on_brd_deliver(self, round_number: int, recs, proof, ready_certificate) -> None:
        if round_number != self.round_number:
            return
        state = self._round_state
        if state.local_reconfigs is not None:
            return
        state.local_reconfigs = canonical_recs(recs)
        state.recs_collection_certificate = proof
        state.recs_ready_certificate = ready_certificate
        self._maybe_finish_stage1()

    def _maybe_finish_stage1(self) -> None:
        state = self._round_state
        if state.bundle is not None:
            return
        if state.local_transactions is None or state.local_reconfigs is None:
            return
        state.stage1_done_at = self.now
        bundle = OperationsBundle(
            cluster_id=self.cluster_id,
            round_number=self.round_number,
            transactions=state.local_transactions,
            reconfigs=state.local_reconfigs,
            txn_certificate=state.local_txn_certificate,
            recs_collection_certificate=state.recs_collection_certificate,
            recs_ready_certificate=state.recs_ready_certificate,
        )
        state.bundle = bundle
        self.operations[self.cluster_id] = bundle
        self.rlc.stop_timer(self.cluster_id)
        if self.is_leader():
            self._inter_broadcast(bundle)
            if self.config.pipeline_local_ordering:
                self._pre_propose(self.round_number + 1)
        self._maybe_execute()

    def _pre_propose(self, sequence: int) -> None:
        """Start ordering the next round's batch early (GeoBFT-style pipelining)."""
        if sequence in self._proposed_rounds:
            return
        self._proposed_rounds.add(sequence)
        batch = self._take_batch()
        self._current_batch[sequence] = batch
        self.tob.propose(sequence, batch)

    # ------------------------------------------------------------------ #
    # Stage 2: inter-cluster communication (Alg. 1)
    # ------------------------------------------------------------------ #
    def _inter_broadcast(self, bundle: OperationsBundle) -> None:
        if self.byzantine.suppress_inter(self.now):
            return
        state = self._round_state
        if bundle.round_number == state.round_number:
            state.inter_sent = True
        message = Inter(round_number=bundle.round_number, cluster_id=self.cluster_id, bundle=bundle)
        for cluster_id in self._sorted_view_ids():
            if cluster_id == self.cluster_id:
                continue
            members = self.members(cluster_id)
            targets = members[: self.faults(cluster_id) + 1]
            for target in targets:
                self.apl.send(target, message)

    def _bundle_valid(self, cluster_id: int, round_number: int, bundle: OperationsBundle) -> bool:
        if cluster_id not in self.view:
            return False
        members = self.members(cluster_id)
        threshold = 2 * self.faults(cluster_id) + 1
        # The expected digests are cached on the bundle itself: the same
        # bundle object is validated once per Inter target and once per
        # LocalShare receiver, and each computation re-walks the batch.  The
        # cache only applies when the claimed coordinates match the bundle's
        # own (a Byzantine sender may relabel a bundle; that path recomputes).
        own_coordinates = (
            cluster_id == bundle.cluster_id and round_number == bundle.round_number
        )
        bundle_cache = bundle.__dict__
        if own_coordinates:
            expected = bundle_cache.get("_commit_digest")
            if expected is None:
                expected = commit_digest(cluster_id, round_number, bundle.transactions)
                bundle_cache["_commit_digest"] = expected
        else:
            expected = commit_digest(cluster_id, round_number, bundle.transactions)
        if not self.network.registry.certificate_valid(
            bundle.txn_certificate, members, threshold, digest=expected
        ):
            return False
        if self.config.parallel_reconfig:
            if own_coordinates:
                expected_recs = bundle_cache.get("_ready_digest")
                if expected_recs is None:
                    expected_recs = ready_digest(cluster_id, round_number, bundle.reconfigs)
                    bundle_cache["_ready_digest"] = expected_recs
            else:
                expected_recs = ready_digest(cluster_id, round_number, bundle.reconfigs)
            if not self.network.registry.certificate_valid(
                bundle.recs_ready_certificate, members, threshold, digest=expected_recs
            ):
                return False
        elif bundle.reconfigs:
            return False
        return True

    def _on_inter(self, sender: str, message: Inter) -> None:
        if message.round_number < self.round_number:
            return
        if not self._bundle_valid(message.cluster_id, message.round_number, message.bundle):
            return
        share = LocalShare(
            round_number=message.round_number,
            cluster_id=message.cluster_id,
            bundle=message.bundle,
        )
        targets = self.local_members()[: self.local_faults() + 1]
        if self.process_id in targets and targets.index(self.process_id) > 0:
            # Staggered redundancy: adopt the bundle at once (a share to
            # self, 0 ms loop-back), but give the first-indexed receiver a
            # grace period to disseminate before re-broadcasting ourselves.
            key = (message.cluster_id, message.round_number)
            if key in self._peer_shared:
                return
            self.apl.send(self.process_id, share)
            self.simulator.schedule(
                self.config.inter_share_grace,
                self._share_grace_expired,
                arg=share,
                label=f"{self.process_id}:share-grace",
            )
            return
        self.abeb.broadcast(share)

    def _share_grace_expired(self, share: LocalShare) -> None:
        if self.mode != MODE_ACTIVE or self.crashed:
            return
        if (share.cluster_id, share.round_number) in self._peer_shared:
            return  # the first-indexed receiver's broadcast made it; stay quiet
        self.share_fallback_broadcasts += 1
        self.abeb.broadcast(share)

    def _on_local_share(self, sender: str, message: LocalShare) -> None:
        if sender != self.process_id:
            self._peer_shared.add((message.cluster_id, message.round_number))
        if message.round_number < self.round_number:
            return
        if message.round_number > self.round_number:
            self._buffered_shares.setdefault(message.round_number, []).append(
                (sender, Envelope(sender, message))
            )
            return
        if message.cluster_id in self.operations:
            return
        # Shares are shipped at envelope-only cost (see LocalShare): only
        # the one copy that survives the dedup above pays the certificate
        # verifications, charged here against this replica's receive CPU.
        # Self-shares are exempt — an Inter receiver validated (and was
        # charged for) the bundle in ``_on_inter`` before sharing it.
        if sender != self.process_id:
            self.network.charge_verification(
                self.process_id, self._bundle_verification_signatures(message.bundle)
            )
        if not self._bundle_valid(message.cluster_id, message.round_number, message.bundle):
            return
        self.operations[message.cluster_id] = message.bundle
        self.rlc.stop_timer(message.cluster_id)
        self._maybe_execute()

    def _bundle_verification_signatures(self, bundle: OperationsBundle) -> int:
        """Signatures ``_bundle_valid`` checks: both certificates' worth."""
        signatures = len(bundle.txn_certificate) if bundle.txn_certificate is not None else 0
        if self.config.parallel_reconfig and bundle.recs_ready_certificate is not None:
            signatures += len(bundle.recs_ready_certificate)
        return signatures

    # ------------------------------------------------------------------ #
    # Stage 3: execution (Alg. 10)
    # ------------------------------------------------------------------ #
    def _maybe_execute(self) -> None:
        if len(self.operations) < self.cluster_count():
            return
        state = self._round_state
        if state.stage2_done_at is not None:
            return
        state.stage2_done_at = self.now
        self._execute()

    def _execute(self) -> None:
        state = self._round_state
        operations = dict(self.operations)
        local_reconfigs: Tuple[ReconfigRequest, ...] = ()
        operation_count = 0
        # The predefined cluster order is the sorted view order; snapshot it
        # before the loop because applying reconfigs below churns the view.
        execution_order = [cid for cid in self._sorted_view_ids() if cid in operations]
        self.kv.begin_round(self.round_number)
        for cluster_id in execution_order:
            bundle = operations[cluster_id]
            self._execute_batch(bundle.transactions)
            operation_count += len(bundle.transactions)
            reconfigs = self._extract_reconfigs(bundle)
            for request in reconfigs:
                self._apply_reconfig(cluster_id, request)
                operation_count += 1
            if cluster_id == self.cluster_id:
                local_reconfigs = reconfigs
        if self._pending_batch:
            self._flush_batch_responses()
        self._kickstart(local_reconfigs)
        self.collector.mark_applied(local_reconfigs)

        self.executed_rounds += 1
        self.executed_operations += operation_count
        self._previous_bundle = operations.get(self.cluster_id)

        execution_delay = max(operation_count, 1) * EXECUTION_COST_PER_OP * self.cpu_factor
        round_end = self.now + execution_delay
        if self.metrics is not None and self.is_reporter:
            self.metrics.record_round(
                cluster_id=self.cluster_id,
                round_number=self.round_number,
                started_at=state.started_at,
                stage1_done_at=state.stage1_done_at or self.now,
                stage2_done_at=state.stage2_done_at or self.now,
                ended_at=round_end,
                transactions=sum(len(b.transactions) for b in operations.values()),
                reconfigs=sum(len(b.reconfigs) for b in operations.values()),
            )

        if self.mode == MODE_LEFT:
            return
        self.round_number += 1
        self.after(execution_delay, self._start_round, label=f"{self.process_id}:next-round")

    def _execute_batch(self, transactions: List[Transaction]) -> None:
        """Execute one cluster's decided batch and answer the clients we owe.

        We respond to a transaction if its client contacted us, or — once,
        at its first position — if the client retried it through us after
        its original replica failed (clients de-duplicate responses by
        transaction id).  The batch's plan is shared by every executor.
        """
        plan = self.kv.ledger.plan(transactions, self.round_number)
        positions = plan.origins.get(self.process_id, ())
        forwarded = self._forwarded
        if forwarded:
            retried = forwarded.keys() & plan.first_positions.keys()
            if retried:
                first_positions = plan.first_positions
                for txn_id in retried:
                    del forwarded[txn_id]
                positions = sorted({*positions, *(first_positions[txn_id] for txn_id in retried)})
        values = self.kv.execute(plan, positions)
        batch_clients = self._batch_clients
        for position, value in zip(positions, values):
            transaction = transactions[position]
            client_id = transaction.client_id
            if client_id in batch_clients:
                # Open-loop clients get their acks batched per execution.
                self._pending_batch.setdefault(client_id, []).append((transaction.txn_id, value))
                continue
            self.apl.send(
                client_id,
                ClientResponse(
                    txn_id=transaction.txn_id,
                    value=value,
                    committed_round=self.round_number,
                    leader_hint=self.leader,
                ),
            )

    def _extract_reconfigs(self, bundle: OperationsBundle) -> Tuple[ReconfigRequest, ...]:
        if self.config.parallel_reconfig:
            return bundle.reconfigs
        # Single-workflow baseline: reconfigurations travel inside the batch
        # encoded as transactions with op "join"/"leave".
        extracted = [
            join_request(t.key, bundle.cluster_id, t.value or "")
            if t.op == "join"
            else leave_request(t.key, bundle.cluster_id)
            for t in bundle.transactions
            if t.op in ("join", "leave")
        ]
        if not extracted:
            return ()
        return tuple(sorted(set(extracted)))

    def _apply_reconfig(self, cluster_id: int, request: ReconfigRequest) -> None:
        members = self.view.setdefault(cluster_id, set())
        if request.is_join:
            members.add(request.process_id)
        elif request.is_leave:
            members.discard(request.process_id)
        self._invalidate_view_caches()
        self.reconfigs_applied.append((self.round_number, request))
        if self.metrics is not None and self.is_reporter:
            self.metrics.record_reconfig(
                kind=request.kind,
                process_id=request.process_id,
                cluster_id=cluster_id,
                round_number=self.round_number,
                applied_at=self.now,
            )

    def _kickstart(self, local_reconfigs: Tuple[ReconfigRequest, ...]) -> None:
        joins = [r for r in local_reconfigs if r.is_join]
        leaves = [r for r in local_reconfigs if r.is_leave]
        next_round = self.round_number + 1
        for request in joins:
            if request.process_id == self.process_id:
                continue
            self.apl.send(
                request.process_id,
                CurrState(
                    cluster_id=self.cluster_id,
                    round_number=next_round,
                    members=self.local_members(),
                    state_snapshot=self.kv.snapshot(),
                    system_view={cid: tuple(sorted(m)) for cid, m in self.view.items()},
                    leader=self.leader,
                    leader_ts=self.leader_ts,
                ),
            )
        for request in leaves:
            if request.process_id == self.process_id:
                self._retire()

    def _retire(self) -> None:
        self.mode = MODE_LEFT
        self.left_at = self.now
        self.rlc.stop_all()
        self._batch_timer.stop()
        self.crash()  # A cleanly departed replica stops sending and receiving.

    # ------------------------------------------------------------------ #
    # Leader changes (Alg. 8)
    # ------------------------------------------------------------------ #
    def _complain(self, leader: str) -> None:
        self.le.complain(leader)

    def _on_new_leader(self, leader: str, view_ts: int) -> None:
        self.leader = leader
        self.leader_ts = view_ts
        self.last_leader_change = self.now
        if self.config.read_leases:
            # Old-view leases die with the view; a freshly elected leader
            # additionally withholds its first grant for one full lease
            # duration so every lease the old leader issued lapses before
            # this leader can execute a conflicting write (see ReadLease).
            self._read_lease.revoke()
            if leader == self.process_id:
                self._lease_hold_until = self.now + self.config.lease_duration
        self.tob.new_leader(leader, view_ts)
        brd = self._brd_instances.get(self.round_number)
        if brd is not None:
            brd.new_leader(leader, view_ts)
        # Re-forward outstanding client transactions to the new leader.
        for transaction in self._forwarded.values():
            self._route_to_leader(transaction)
        if not self.is_leader():
            return
        # Alg. 8: the new leader re-broadcasts what the old leader may have
        # withheld — the current round's bundle if stage 1 already finished,
        # and the previous round's bundle (remote clusters may be one behind).
        state = self._round_state
        if state.bundle is not None:
            self._inter_broadcast(state.bundle)
        if self._previous_bundle is not None:
            self._inter_broadcast(self._previous_bundle)
        # When the old leader never completed local ordering, the engine's
        # own view-change recovery re-proposes: every replica reports its
        # pending instances to us, and a quorum of reports yields either a
        # prepared value or a fresh batch via ``fetch_value``.  (A separate
        # batch-timer re-propose here used to race that recovery and
        # self-equivocate — see the one-proposal-per-view note in the
        # engines' ``propose``.)

    # ------------------------------------------------------------------ #
    # Client transactions
    # ------------------------------------------------------------------ #
    def _route_to_leader(self, transaction: Transaction) -> None:
        if self.is_leader():
            self._enqueue(transaction)
        else:
            self.apl.send(self.leader, ClientRequest(transaction=transaction))

    def _enqueue(self, transaction: Transaction) -> None:
        if transaction.txn_id in self._queued_ids or self.kv.executed(transaction.txn_id):
            return
        self._queued_ids.add(transaction.txn_id)
        self._leader_queue.append(transaction)
        if (
            self.mode == MODE_ACTIVE
            and self.is_leader()
            and self.round_number not in self._proposed_rounds
            and len(self._leader_queue) >= self.config.batch_size
        ):
            self._propose_batch()

    def _on_client_request(self, sender: str, message: ClientRequest) -> None:
        transaction = message.transaction
        local_view = self.view.get(self.cluster_id)
        from_member = local_view is not None and sender in local_view
        if from_member:
            # A peer forwarded a transaction to us because we are (were) the leader.
            self._enqueue(transaction)
            return
        if transaction.is_read and self.config.local_reads:
            self.apl.send(
                transaction.client_id,
                ClientResponse(
                    txn_id=transaction.txn_id,
                    value=self.kv.read(transaction.key),
                    committed_round=self.round_number,
                    leader_hint=self.leader,
                ),
            )
            return
        self._forwarded[transaction.txn_id] = transaction
        self._route_to_leader(transaction)

    # ------------------------------------------------------------------ #
    # Open-loop client batches and read leases
    # ------------------------------------------------------------------ #
    def _on_client_batch(self, sender: str, message: ClientBatchRequest) -> None:
        """Handle one window's worth of operations from an open-loop population.

        Reads are answered immediately when safe to do so — at the leader,
        under a live read lease, or (leases disabled) under the eventual
        ``local_reads`` policy; everything else forwards to the leader as a
        single re-batched envelope.  Write acknowledgements accumulate in
        ``_pending_batch`` and flush once per execution.
        """
        local_view = self.view.get(self.cluster_id)
        from_member = local_view is not None and sender in local_view
        if not from_member:
            self._batch_clients.add(sender)
        is_leader = self.is_leader()
        leases = self.config.read_leases
        lease_ok = leases and self._read_lease.valid(self.now, self.leader_ts)
        serve_reads = is_leader or lease_ok or (
            not leases and (self.config.local_reads or from_member)
        )
        entries: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        forward: List[Transaction] = []
        hits = 0
        misses = 0
        for transaction in message.transactions:
            if transaction.is_read:
                if serve_reads:
                    entries.setdefault(transaction.client_id, []).append(
                        (transaction.txn_id, self.kv.read(transaction.key))
                    )
                    if leases and not from_member:
                        hits += 1
                else:
                    # Lease miss: the read travels to the leader inside the
                    # same forwarded batch as the writes (never stored in
                    # ``_forwarded`` — it is answered without ordering, so
                    # there is nothing to re-forward on a leader change).
                    forward.append(transaction)
                    if leases and not from_member:
                        misses += 1
            elif from_member:
                self._enqueue(transaction)
            else:
                self._forwarded[transaction.txn_id] = transaction
                forward.append(transaction)
        if forward:
            if is_leader:
                for transaction in forward:
                    self._enqueue(transaction)
            else:
                self.apl.send(self.leader, ClientBatchRequest(transactions=tuple(forward)))
        for client_id in sorted(entries):
            self.apl.send(
                client_id,
                ClientBatchResponse(
                    entries=tuple(entries[client_id]),
                    committed_round=self.round_number,
                    leader_hint=self.leader,
                ),
            )
        if hits or misses:
            self.lease_hits += hits
            self.lease_misses += misses
            if self.metrics is not None:
                self.metrics.record_lease_reads(hits, misses)

    def _flush_batch_responses(self) -> None:
        """Send one batched response per open-loop client for this execution."""
        leader_hint = self.leader
        committed_round = self.round_number
        for client_id in sorted(self._pending_batch):
            self.apl.send(
                client_id,
                ClientBatchResponse(
                    entries=tuple(self._pending_batch[client_id]),
                    committed_round=committed_round,
                    leader_hint=leader_hint,
                ),
            )
        self._pending_batch.clear()

    def _arm_lease_tick(self) -> None:
        """Start the resident lease-refresh tick (opt-in, once per replica)."""
        if not self.config.read_leases or self._lease_tick_armed:
            return
        self._lease_tick_armed = True
        self.after(
            self.config.lease_duration / 2.0,
            self._lease_tick,
            label=f"{self.process_id}:lease",
        )

    def _lease_tick(self) -> None:
        if self.mode == MODE_LEFT:
            return
        if (
            self.mode == MODE_ACTIVE
            and self.is_leader()
            and self.now >= self._lease_hold_until
        ):
            self.abeb.broadcast(
                ReadLeaseGrant(
                    cluster_id=self.cluster_id,
                    view_ts=self.leader_ts,
                    granted_at=self.now,
                    duration=self.config.lease_duration,
                )
            )
        self.after(
            self.config.lease_duration / 2.0,
            self._lease_tick,
            label=f"{self.process_id}:lease",
        )

    def _on_lease_grant(self, sender: str, message: ReadLeaseGrant) -> None:
        if message.cluster_id != self.cluster_id:
            return
        if sender != self.leader or message.view_ts != self.leader_ts:
            return  # grant from a leader this replica no longer follows
        self._read_lease.install(message.view_ts, message.granted_at, message.duration)

    # ------------------------------------------------------------------ #
    # Reconfiguration requester side (Alg. 3)
    # ------------------------------------------------------------------ #
    def request_join(self, target_cluster: Optional[int] = None) -> None:
        """Ask to join a cluster (used by freshly created replicas)."""
        if target_cluster is not None:
            self.cluster_id = target_cluster
        self.mode = MODE_JOINING
        self._join_tracker = RequestTracker(lambda: 2 * self.faults(self.cluster_id) + 1)
        self._broadcast_join()
        self._join_retry_timer.start(1.0)

    def _broadcast_join(self) -> None:
        region = self.network.latency_model.region_of(self.process_id)
        message = RequestJoin(
            cluster_id=self.cluster_id, round_number=self.round_number, region=region
        )
        for member in self.members(self.cluster_id):
            self.apl.send(member, message)

    def request_leave(self) -> None:
        """Ask to leave the local cluster."""
        self._leave_tracker = RequestTracker(lambda: 2 * self.local_faults() + 1)
        self.collector.add(leave_request(self.process_id, self.cluster_id))
        message = RequestLeave(cluster_id=self.cluster_id, round_number=self.round_number)
        for member in self.local_members():
            if member != self.process_id:
                self.apl.send(member, message)

    def _retry_join(self) -> None:
        if self.mode != MODE_JOINING:
            return
        if self._join_tracker is not None and self._join_tracker.should_retry():
            self._broadcast_join()
        self._join_retry_timer.start(min(self._join_retry_timer.duration * 2, 16.0))

    def _on_ack(self, sender: str, message: ReconfigAck) -> None:
        if self.mode == MODE_JOINING and self._join_tracker is not None:
            self._join_tracker.record_ack(sender)
        if self._leave_tracker is not None:
            self._leave_tracker.record_ack(sender)

    def _on_curr_state(self, sender: str, message: CurrState) -> None:
        if self.mode != MODE_JOINING:
            return
        key = (message.round_number, tuple(message.members))
        votes = self._currstate_votes.setdefault(key, set())
        votes.add(sender)
        self._currstate_snapshots[key] = message
        threshold = 2 * failure_threshold(len(message.members)) + 1
        if len(votes) < threshold:
            return
        snapshot = self._currstate_snapshots[key]
        self.kv.restore(snapshot.state_snapshot, snapshot.round_number)
        self.view = {cid: set(members) for cid, members in snapshot.system_view.items()}
        self._invalidate_view_caches()
        self.round_number = snapshot.round_number
        self.mode = MODE_ACTIVE
        self.joined_at = self.now
        self._join_retry_timer.stop()
        # Adopt the sending quorum's leader so votes and submissions go to the
        # replica the rest of the cluster actually follows.
        self.leader_ts = snapshot.leader_ts
        self.le.ts = snapshot.leader_ts
        if snapshot.leader:
            self.leader = snapshot.leader
        else:
            self.leader = self.local_members()[self.leader_ts % len(self.local_members())]
        self.tob.leader = self.leader
        self.tob.view_ts = self.leader_ts
        if self.metrics is not None:
            self.metrics.record_join_completed(self.process_id, self.cluster_id, self.now)
        self._arm_lease_tick()
        self._start_round()

    # ------------------------------------------------------------------ #
    # Message dispatch
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> None:
        """Route a delivered envelope to the owning sub-protocol."""
        if self.mode == MODE_LEFT:
            return
        payload = envelope.payload
        payload_type = type(payload)

        entry = self._handler_table.get(payload_type)
        if entry is not None:
            active_only, wants_envelope, handler = entry
            if active_only and self.mode != MODE_ACTIVE:
                return
            handler(sender, envelope if wants_envelope else payload)
            return
        # Not in the exact-type table: a membership request, or a payload
        # this replica has no handler for (dropped).
        if (payload_type is RequestJoin or payload_type is RequestLeave) and self.mode == MODE_ACTIVE:
            if self.config.parallel_reconfig:
                self.collector.on_message(sender, envelope)
            else:
                self._single_workflow_reconfig(sender, payload)

    def _on_brd_timer(self, round_number: int) -> None:
        brd = self._brd_instances.get(round_number)
        if brd is not None:
            brd._on_timeout()

    def _dispatch_brd(self, sender: str, envelope: Envelope) -> None:
        round_number = envelope.payload.round_number
        brd = self._brd_instances.get(round_number)
        if brd is not None:
            brd.on_message(sender, envelope)
        elif round_number > self.round_number:
            self._buffered_brd.setdefault(round_number, []).append((sender, envelope))

    def _single_workflow_reconfig(self, sender: str, payload) -> None:
        """E5.2 baseline: order reconfigurations through the transaction path."""
        if isinstance(payload, RequestJoin):
            kind, region = "join", payload.region
        else:
            kind, region = "leave", ""
        transaction = Transaction(
            txn_id=f"reconfig:{kind}:{sender}",
            client_id=sender,
            origin_replica=self.process_id,
            op=kind,
            key=sender,
            value=region,
            submitted_at=self.now,
            size_bytes=128,
        )
        self._forwarded[transaction.txn_id] = transaction
        self._route_to_leader(transaction)
        self.collector._ack(sender)  # Acknowledge collection as in Alg. 3.


__all__ = ["ByzantineBehavior", "HamavaReplica", "MODE_ACTIVE", "MODE_IDLE", "MODE_JOINING", "MODE_LEFT"]
