"""The Hamava replica: an orchestrator over one component per paper stage.

One :class:`HamavaReplica` is a member of one cluster.  Each round it runs
the paper's three stages, each owned by one component:

1. **Intra-cluster replication** (:class:`LocalOrdering`) — the cluster's
   ordering engine orders a batch of transactions while one BRD instance per
   round uniformly disseminates the collected join/leave requests
   (Alg. 3/4/5/6), in parallel with ordering.
2. **Inter-cluster communication** (:class:`GlobalSharing`) — the leader
   ships the cluster's operations plus certificates to ``f_j + 1`` replicas
   of every remote cluster, which share them locally (Alg. 1); missing remote
   operations trigger the heterogeneous remote leader change (Alg. 2).
3. **Execution** (:class:`Execution`) — operations from all clusters are
   executed in the predefined cluster order, reconfigurations update the
   membership view and failure thresholds for the next round, and joining
   replicas are kick-started with a state transfer (Alg. 10).

Clients enter through :class:`ClientFront`; the requester side of a join or
leave (Alg. 3) is :class:`~repro.core.reconfiguration.Requester`.  The
replica keeps what every stage reads — the view, the leader and the round —
and routes each message straight to its owner.  It is consensus-agnostic:
the ordering engine is chosen by name in
:class:`~repro.core.config.HamavaConfig` (``"hotstuff"``,
``"hotstuff_chained"`` or ``"bftsmart"``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Any, Deque, Dict, FrozenSet, List, Optional, Set, Tuple

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
    CurrState,
    Inter,
    LComplaint,
    LocalShare,
    ReadLeaseGrant,
    ReconfigAck,
    RequestJoin,
    RequestLeave,
    ShareRequest,
)
from repro.core.reconfiguration import (
    MODE_ACTIVE,
    MODE_IDLE,
    MODE_JOINING,
    MODE_LEFT,
    ReconfigurationCollector,
    Requester,
)
from repro.core.remote_leader_change import RemoteLeaderChange
from repro.core.statemachine import ExecutionLedger, KeyValueStore, LedgerView
from repro.core.types import (
    READ,
    Batch,
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

#: Virtual CPU cost of executing one operation in stage 3 (seconds).
EXECUTION_COST_PER_OP = 0.00001

#: Transactions per round per cluster (paper: 100).
BATCH_SIZE = 100
#: Seconds after which the leader proposes a partial (possibly empty) batch,
#: so rounds progress under light load.
BATCH_TIMEOUT = 0.01
#: Lifetime of one read-lease grant in seconds.  Grants refresh at half this
#: period; a new leader stays silent for one full duration so old-leader
#: leases lapse before it writes.
LEASE_DURATION = 2.0

#: Rounds between two sweeps of the stable watermark (:meth:`LocalOrdering.retire`).
#: Sweeping every round adds up to 1 % to the consensus calls per operation
#: (``write_heavy``); every eighth round about 0.1 %, holding at most ten rounds.
RETIRE_STRIDE = 8

#: The local-hop allowance of the stage-2 grace, in seconds.  A later-indexed
#: Inter target waits ``INTER_SHARE_GRACE`` plus twice the Inter link's
#: jitter spread (:meth:`GlobalSharing.grace`) for the first target's share
#: before re-broadcasting the bundle itself, and a target holding only a
#: header waits as long before asking for the bundle.  Each fault case —
#: a silent first target, a skipped target — costs one grace.
INTER_SHARE_GRACE = 0.002


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
    """The record of the round in progress; each stage fills in its part."""

    started_at: float
    local_transactions: Optional[Batch] = None
    local_txn_certificate: Optional[Any] = None
    local_reconfigs: Optional[Tuple[ReconfigRequest, ...]] = None
    recs_collection_certificate: Optional[Any] = None
    recs_ready_certificate: Optional[Any] = None
    stage1_done_at: Optional[float] = None
    stage2_done_at: Optional[float] = None
    bundle: Optional[OperationsBundle] = None


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
            deployment (one per process, since each process runs one
            kernel); a replica built on its own gets a private one.
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
        self.joined_at: Optional[float] = None
        self.left_at: Optional[float] = None

        # Membership view: cluster id -> member ids.  The sets are shared
        # and immutable (see ``SystemConfig.shared_membership``); a
        # reconfiguration replaces a cluster's set, never mutates it.
        self.system_config = system_config
        self.view: Dict[int, FrozenSet[str]] = system_config.initial_view()
        self.round_number = 1
        self.kv = KeyValueStore(ledger)

        # Per-view-epoch caches of the sorted membership tuples and the
        # sorted cluster order.  ``members()``/``local_members()`` are called
        # for every message sent or validated, so re-sorting the view per
        # call is pure overhead; the caches are invalidated whenever the view
        # changes (reconfiguration execution, state-transfer adoption).  The
        # cached values are *tuples* — the ``members_fn`` contract (see
        # ``consensus/interface.py``) promises the engines, BRD, leader
        # election, and RLC an immutable sorted sequence they never re-sort —
        # taken from the system config's memo, so equal memberships share one.
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
        self.le = LeaderElection(
            owner=replica_id,
            cluster_id=cluster_id,
            members_fn=self.local_members,
            faults_fn=self.local_faults,
            network=network,
            on_new_leader=self._on_new_leader,
        )

        # The stages, then the sub-protocols beside them.
        self.front = ClientFront(self)
        self.ordering = LocalOrdering(self)
        self.sharing = GlobalSharing(self)
        self.execution = Execution(self)
        self.requester = Requester(self)
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
            on_next_leader=self.le.next_leader,
            last_leader_change_fn=lambda: self.last_leader_change,
        )

        # The round in progress: its record and the bundles collected so far.
        self.operations: Dict[int, OperationsBundle] = {}
        self.round_state = _RoundState(started_at=0.0)

        # Message dispatch table: exact payload type -> (active_only,
        # wants_envelope, bound handler of the owning component).  One dict
        # probe replaces an isinstance ladder on the per-delivery hot path.
        # Every payload class an engine or sub-protocol sends is listed
        # (``Ch*`` subclasses register themselves through the engine's
        # ``HANDLERS``); anything else is dropped.
        front, sharing, requester = self.front, self.sharing, self.requester
        reconfig_request = (
            (True, True, self.collector.on_message)
            if self.config.parallel_reconfig
            else (True, False, front.single_workflow_reconfig)
        )
        self._handler_table: Dict[type, Tuple[bool, bool, Any]] = {
            ClientRequest: (False, False, front.on_client_request),
            ClientBatchRequest: (False, False, front.on_client_batch),
            ReadLeaseGrant: (True, False, front.on_lease_grant),
            ReconfigAck: (False, False, requester.on_ack),
            CurrState: (False, False, requester.on_curr_state),
            Inter: (True, False, sharing.on_inter),
            LocalShare: (True, False, sharing.on_local_share),
            ShareRequest: (True, False, sharing.on_share_request),
            ElectionComplaint: (True, True, self.le.on_message),
            RequestJoin: reconfig_request,
            RequestLeave: reconfig_request,
        }
        for message_type in RemoteLeaderChange.MESSAGE_TYPES:
            self._handler_table[message_type] = (True, True, self.rlc.on_message)
        self._handler_table[LComplaint] = (True, True, sharing.on_lcomplaint)
        for message_type in self.ordering.tob.MESSAGE_TYPES:
            self._handler_table[message_type] = (True, True, self.ordering.tob.on_message)
        for message_type in ByzantineReliableDissemination.MESSAGE_TYPES:
            self._handler_table[message_type] = (True, True, self.ordering.dispatch_brd)

    # ------------------------------------------------------------------ #
    # Membership view
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
            members = cache[self.cluster_id] = self.system_config.sorted_membership(
                self.view[self.cluster_id]
            )
        return members

    def members(self, cluster_id: int) -> Tuple[str, ...]:
        """Sorted member tuple of any cluster under the current view."""
        cache = self._members_cache
        members = cache.get(cluster_id)
        if members is None:
            members = cache[cluster_id] = self.system_config.sorted_membership(self.view[cluster_id])
        return members

    def sorted_view_ids(self) -> List[int]:
        """Sorted cluster ids of the current view (cached per view epoch)."""
        order = self._view_order_cache
        if order is None:
            order = self._view_order_cache = sorted(self.view)
        return order

    def invalidate_view_caches(self) -> None:
        """Forget the per-epoch caches; called whenever the view changes."""
        self._members_cache.clear()
        self._faults_cache.clear()
        self._view_order_cache = None
        self.sharing.forget_view()

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

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Begin round 1 (active members) or stay idle until a join begins."""
        if self.mode == MODE_ACTIVE:
            self.front.arm_lease_tick()
            self.start_round()

    def set_timer_rate(self, rate: float) -> None:
        """Skew every protocol clock, including the shared deadline pools.

        The base class only reaches timers created via ``new_timer``; the
        components also own lazy deadline pools (BRD delivery, engine
        watchdogs, remote-leader-change watches) that must tick at the
        skewed rate.
        """
        super().set_timer_rate(rate)
        self.ordering.set_timer_rate(rate)
        self.rlc.set_timer_rate(rate)

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #
    def start_round(self) -> None:
        """Open ``round_number``, then replay what arrived ahead of it."""
        round_number = self.round_number
        self.round_state = _RoundState(started_at=self.simulator.now)
        self.operations = {}
        self.rlc.start_round()
        ordering = self.ordering
        ordering.open_round(round_number)
        decisions = ordering.tob.decisions
        if round_number in decisions:
            ordering.on_decision(decisions[round_number])
        self.sharing.open_round(round_number)
        brd = ordering.brd_instances[round_number]
        for sender, envelope in ordering.buffered_brd.pop(round_number, ()):
            brd.on_message(sender, envelope)

    def finish_stage1(self) -> None:
        """Seal the round's own bundle once ordering and dissemination delivered."""
        state = self.round_state
        delivered = state.local_transactions is not None and state.local_reconfigs is not None
        if state.bundle is not None or not delivered:
            return
        state.stage1_done_at = self.simulator.now
        bundle = state.bundle = OperationsBundle(
            cluster_id=self.cluster_id,
            round_number=self.round_number,
            transactions=state.local_transactions,
            reconfigs=state.local_reconfigs,
            txn_certificate=state.local_txn_certificate,
            recs_collection_certificate=state.recs_collection_certificate,
            recs_ready_certificate=state.recs_ready_certificate,
        )
        self.operations[self.cluster_id] = bundle
        self.rlc.stop_timer(self.cluster_id)
        if self.leader == self.process_id:
            self.sharing.inter_broadcast(bundle)
            if self.config.pipeline_local_ordering:
                # GeoBFT-style pipelining: start ordering the next batch now.
                self.ordering.propose(self.round_number + 1)
        self.execution.maybe_execute()

    # ------------------------------------------------------------------ #
    # Leader changes (Alg. 8)
    # ------------------------------------------------------------------ #
    def _on_new_leader(self, leader: str, view_ts: int) -> None:
        self.leader = leader
        self.leader_ts = view_ts
        self.last_leader_change = self.simulator.now
        self.ordering.new_leader(leader, view_ts)
        self.front.new_leader(leader)
        if leader == self.process_id:
            # The new leader re-broadcasts what the old one may have withheld.
            # When the old leader never completed local ordering, the engine's
            # own view-change recovery re-proposes: every replica reports its
            # pending instances to us, and a quorum of reports yields either a
            # prepared value or a fresh batch via ``fetch_value``.
            self.sharing.rebroadcast()

    # ------------------------------------------------------------------ #
    # Message dispatch
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> None:
        """Route a delivered envelope to the component that owns its class."""
        if self.mode == MODE_LEFT:
            return
        payload = envelope.payload
        entry = self._handler_table.get(type(payload))
        if entry is not None:
            active_only, wants_envelope, handler = entry
            if active_only and self.mode != MODE_ACTIVE:
                return
            handler(sender, envelope if wants_envelope else payload)


class ClientFront:
    """Client admission: closed-loop requests, open-loop batches and read leases.

    Reads are answered at once from the local store (under a live lease when
    leases are on); writes go to the leader's queue, and a write a client
    sent *here* stays in ``forwarded`` until executed, so that a leader
    change re-forwards it and execution answers its client from here.
    Clients that speak the batch protocol get their write acks accumulated
    in ``pending_batch`` and flushed once per execution.
    """

    def __init__(self, replica: HamavaReplica) -> None:
        self.replica = replica
        self.forwarded: Dict[str, Transaction] = {}
        self.batch_clients: Set[str] = set()
        self.pending_batch: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        # Read-lease state (active only when ``config.read_leases``).
        self.read_lease = ReadLease()
        self.lease_hold_until = 0.0
        self.lease_tick_armed = False

    def route_to_leader(self, transaction: Transaction) -> None:
        """Queue a transaction here if this replica leads, else send it on."""
        replica = self.replica
        if replica.leader == replica.process_id:
            replica.ordering.enqueue(transaction)
        else:
            replica.apl.send(replica.leader, ClientRequest(transaction=transaction))

    def on_client_request(self, sender: str, message: ClientRequest) -> None:
        """One closed-loop transaction, from its client or a forwarding peer."""
        replica = self.replica
        transaction = message.transaction
        local_view = replica.view.get(replica.cluster_id)
        if local_view is not None and sender in local_view:
            # A peer forwarded a transaction to us because we are (were) the leader.
            replica.ordering.enqueue(transaction)
            return
        if transaction.op == READ:
            replica.apl.send(
                transaction.client_id,
                ClientResponse(
                    transaction.txn_id,
                    replica.kv.read(transaction.key),
                    replica.round_number,
                    replica.leader,
                ),
            )
            return
        self.forwarded[transaction.txn_id] = transaction
        self.route_to_leader(transaction)

    def on_client_batch(self, sender: str, message: ClientBatchRequest) -> None:
        """Handle one window's worth of operations from an open-loop population.

        Reads are answered immediately when safe to do so — always when
        leases are off, else at the leader or under a live read lease;
        everything else forwards to the leader as a single re-batched
        envelope.
        """
        replica = self.replica
        local_view = replica.view.get(replica.cluster_id)
        from_member = local_view is not None and sender in local_view
        if not from_member:
            self.batch_clients.add(sender)
        is_leader = replica.leader == replica.process_id
        leases = replica.config.read_leases
        lease_ok = leases and self.read_lease.valid(replica.simulator.now, replica.leader_ts)
        serve_reads = is_leader or lease_ok or not leases
        entries: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        forward: List[Transaction] = []
        hits = 0
        misses = 0
        for transaction in message.transactions:
            if transaction.is_read:
                if serve_reads:
                    entries.setdefault(transaction.client_id, []).append(
                        (transaction.txn_id, replica.kv.read(transaction.key))
                    )
                    if leases and not from_member:
                        hits += 1
                else:
                    # Lease miss: the read travels to the leader inside the
                    # same forwarded batch as the writes (never stored in
                    # ``forwarded`` — it is answered without ordering, so
                    # there is nothing to re-forward on a leader change).
                    forward.append(transaction)
                    if leases and not from_member:
                        misses += 1
            elif from_member:
                replica.ordering.enqueue(transaction)
            else:
                self.forwarded[transaction.txn_id] = transaction
                forward.append(transaction)
        if forward:
            if is_leader:
                for transaction in forward:
                    replica.ordering.enqueue(transaction)
            else:
                replica.apl.send(replica.leader, ClientBatchRequest(transactions=tuple(forward)))
        for client_id in sorted(entries):
            replica.apl.send(
                client_id,
                ClientBatchResponse(
                    entries=tuple(entries[client_id]),
                    committed_round=replica.round_number,
                    leader_hint=replica.leader,
                ),
            )
        if (hits or misses) and replica.metrics is not None:
            replica.metrics.record_lease_reads(hits, misses)

    def flush_batch_responses(self) -> None:
        """Send one batched response per open-loop client for this execution."""
        replica = self.replica
        pending = self.pending_batch
        for client_id in sorted(pending):
            replica.apl.send(
                client_id,
                ClientBatchResponse(
                    entries=tuple(pending[client_id]),
                    committed_round=replica.round_number,
                    leader_hint=replica.leader,
                ),
            )
        pending.clear()

    def announce_departure(self) -> None:
        """Tell every population this replica served that it has left."""
        replica = self.replica
        for client_id in sorted(self.batch_clients):
            replica.apl.send(
                client_id, ClientBatchResponse(committed_round=replica.round_number, departed=True)
            )

    def single_workflow_reconfig(self, sender: str, payload) -> None:
        """E5.2 baseline: order a join/leave request through the transaction path."""
        replica = self.replica
        if isinstance(payload, RequestJoin):
            kind, region = "join", payload.region
        else:
            kind, region = "leave", ""
        transaction = Transaction(
            txn_id=f"reconfig:{kind}:{sender}",
            client_id=sender,
            origin_replica=replica.process_id,
            op=kind,
            key=sender,
            value=region,
            submitted_at=replica.simulator.now,
            size_bytes=128,
        )
        self.forwarded[transaction.txn_id] = transaction
        self.route_to_leader(transaction)
        replica.collector.ack(sender)  # Acknowledge collection as in Alg. 3.

    def new_leader(self, leader: str) -> None:
        """Drop old-view leases and re-forward outstanding client writes."""
        replica = self.replica
        if replica.config.read_leases:
            # Old-view leases die with the view; a freshly elected leader
            # additionally withholds its first grant for one full lease
            # duration so every lease the old leader issued lapses before
            # this leader can execute a conflicting write (see ReadLease).
            self.read_lease.revoke()
            if leader == replica.process_id:
                self.lease_hold_until = replica.simulator.now + LEASE_DURATION
        for transaction in self.forwarded.values():
            self.route_to_leader(transaction)

    def arm_lease_tick(self) -> None:
        """Start the resident lease-refresh tick (opt-in, once per replica)."""
        replica = self.replica
        if not replica.config.read_leases or self.lease_tick_armed:
            return
        self.lease_tick_armed = True
        replica.after(LEASE_DURATION / 2.0, self._lease_tick, label=f"{replica.process_id}:lease")

    def _lease_tick(self) -> None:
        replica = self.replica
        if replica.mode == MODE_LEFT:
            return
        now = replica.simulator.now
        if (
            replica.mode == MODE_ACTIVE
            and replica.leader == replica.process_id
            and now >= self.lease_hold_until
        ):
            replica.abeb.broadcast(
                ReadLeaseGrant(
                    cluster_id=replica.cluster_id,
                    view_ts=replica.leader_ts,
                    granted_at=now,
                    duration=LEASE_DURATION,
                )
            )
        replica.after(LEASE_DURATION / 2.0, self._lease_tick, label=f"{replica.process_id}:lease")

    def on_lease_grant(self, sender: str, message: ReadLeaseGrant) -> None:
        """Install a grant from the leader this replica follows."""
        replica = self.replica
        if message.cluster_id != replica.cluster_id:
            return
        if sender != replica.leader or message.view_ts != replica.leader_ts:
            return  # grant from a leader this replica no longer follows
        self.read_lease.install(message.view_ts, message.granted_at, message.duration)


class LocalOrdering:
    """Stage 1 (Alg. 3–6): order the cluster's batch, disseminate its reconfigurations.

    The leader cuts each round's batch from its queue and proposes it to the
    ordering engine; in parallel, one BRD instance per round disseminates
    the collected join/leave requests.  On quiet rounds BRD rides the
    engine's own messages through the four piggyback hooks, which are this
    component's methods.
    """

    def __init__(self, replica: HamavaReplica) -> None:
        self.replica = replica
        config = replica.config
        self.leader_queue: Deque[Transaction] = deque()
        self.queued_ids: Set[str] = set()
        self.proposed_rounds: Set[int] = set()
        self.current_batch: Dict[int, Batch] = {}
        self.batch_size = BATCH_SIZE
        self.batch_timeout = BATCH_TIMEOUT
        self.tob = make_engine(
            config.engine,
            replica.process_id,
            replica.cluster_id,
            replica.local_members,
            replica.local_faults,
            replica.network,
            replica.simulator,
            config.instance_timeout,
            on_deliver=self.on_decision,
            on_complain=replica.le.complain,
            fetch_value=self.fetch_batch,
            transfer_state=self.transfer_state,
            # The piggyback hooks exist only beside a BRD workflow.
            round_marker_fn=self.round_marker if config.parallel_reconfig else None,
            on_round_marker=self.on_round_marker,
            decide_extra_fn=self.decide_extra if config.parallel_reconfig else None,
            on_decide_extra=self.on_decide_extra,
        )
        self.brd_instances: Dict[int, ByzantineReliableDissemination] = {}
        self.buffered_brd: Dict[int, List[Tuple[str, Envelope]]] = {}
        #: Shared lazy-deadline pool for the per-round BRD delivery timers
        #: (keyed by round number); expirations route back to the instance.
        self.brd_timer_pool = replica.simulator.deadline_pool(
            self.on_brd_timer, name=f"{replica.process_id}:brd"
        )
        self.batch_timer = replica.new_timer(self.batch_timeout, self.on_batch_timeout, "batch")

    def set_timer_rate(self, rate: float) -> None:
        """Skew the BRD delivery timers and every pool the engine owns."""
        self.brd_timer_pool.rate = rate
        self.tob.set_timer_rate(rate)

    def open_round(self, round_number: int) -> None:
        """Create the round's BRD instance and engine instance; lead its batch."""
        replica = self.replica
        self.brd_instances[round_number] = ByzantineReliableDissemination(
            owner=replica.process_id,
            cluster_id=replica.cluster_id,
            round_number=round_number,
            members_fn=replica.local_members,
            faults_fn=replica.local_faults,
            network=replica.network,
            simulator=replica.simulator,
            leader=replica.leader,
            view_ts=replica.leader_ts,
            timeout=replica.config.brd_timeout,
            on_deliver=partial(self.on_brd_deliver, round_number),
            on_complain=replica.le.complain,
            timer_pool=self.brd_timer_pool,
        )
        # Garbage-collect instances older than the previous round.
        for old_round in [r for r in self.brd_instances if r < round_number - 1]:
            self.brd_instances.pop(old_round).stop()
        self.tob.start_instance(round_number)
        if replica.leader == replica.process_id and round_number not in self.proposed_rounds:
            if len(self.leader_queue) >= self.batch_size:
                self.propose(round_number)
            else:
                self.batch_timer.start(self.batch_timeout)

    # -- batches ---------------------------------------------------------- #
    def enqueue(self, transaction: Transaction) -> None:
        """Queue a transaction at the leader; propose once a full batch waits."""
        replica = self.replica
        if transaction.txn_id in self.queued_ids or replica.kv.executed(transaction.txn_id):
            return
        self.queued_ids.add(transaction.txn_id)
        self.leader_queue.append(transaction)
        if (
            replica.mode == MODE_ACTIVE
            and replica.leader == replica.process_id
            and replica.round_number not in self.proposed_rounds
            and len(self.leader_queue) >= self.batch_size
        ):
            self.propose(replica.round_number)

    def on_batch_timeout(self) -> None:
        replica = self.replica
        if replica.mode == MODE_ACTIVE and replica.leader == replica.process_id:
            self.propose(replica.round_number)

    def propose(self, sequence: int) -> None:
        """Leader: propose a fresh batch for ``sequence``, once per sequence."""
        if sequence not in self.proposed_rounds:
            self.proposed_rounds.add(sequence)
            self.tob.propose(sequence, self.take_batch(sequence))

    def fetch_batch(self, sequence: int) -> Batch:
        """The engine's ``fetch_value``: the batch cut for ``sequence``, else a fresh one."""
        if sequence in self.current_batch:
            return self.current_batch[sequence]
        return self.take_batch(sequence)

    def take_batch(self, sequence: int) -> Batch:
        """Cut ``sequence``'s batch from the queue, skipping executed transactions.

        The one place a batch is made: the :class:`Batch` is immutable from
        here on, and every replica's vote, commit digest and bundle check
        reads the one digest it keeps.
        """
        cut: List[Transaction] = []
        queue = self.leader_queue
        while queue and len(cut) < self.batch_size:
            transaction = queue.popleft()
            self.queued_ids.discard(transaction.txn_id)
            if self.replica.kv.executed(transaction.txn_id):
                continue
            cut.append(transaction)
        batch = self.current_batch[sequence] = Batch(cut)
        return batch

    def new_leader(self, leader: str, view_ts: int) -> None:
        """Hand a new leader to the engine and to this round's BRD instance."""
        self.tob.new_leader(leader, view_ts)
        brd = self.brd_instances.get(self.replica.round_number)
        if brd is not None:
            brd.new_leader(leader, view_ts)

    # -- stage 1a: the decided batch --------------------------------------- #
    def on_decision(self, decision: Decision) -> None:
        """The engine's ``on_deliver``: adopt this round's decided batch."""
        replica = self.replica
        round_number = replica.round_number
        if decision.sequence != round_number:
            return  # another round's; ``start_round`` replays one decided early
        state = replica.round_state
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
        if replica.config.parallel_reconfig:
            brd = self.brd_instances[round_number]
            brd.broadcast(replica.collector.current_recs())
            if replica.leader == replica.process_id:
                brd.flush_aggregate()
        else:
            self.on_brd_deliver(round_number, (), None, None)
        replica.finish_stage1()

    # -- stage 1b: reconfiguration dissemination --------------------------- #
    def on_brd_deliver(self, round_number: int, recs, proof, ready_certificate) -> None:
        """A BRD instance's ``on_deliver`` (bound to its round)."""
        replica = self.replica
        if round_number != replica.round_number:
            return
        state = replica.round_state
        if state.local_reconfigs is not None:
            return
        state.local_reconfigs = canonical_recs(recs)
        state.recs_collection_certificate = proof
        state.recs_ready_certificate = ready_certificate
        # 2f+1 members signed this round's dissemination, and a correct one
        # opens round r only after executing r - 1: rounds up to r - 2 are
        # stable (r - 1 stays for a peer one round behind).
        if ready_certificate is not None and round_number - 2 >= self.tob.watermark + RETIRE_STRIDE:
            self.retire(round_number - 2)
        replica.finish_stage1()

    def retire(self, sequence: int) -> None:
        """Retire every round at or below ``sequence``.

        Sweeps the engine's tables, this stage's, and the shares stage 2
        buffered for a round before it opened.
        """
        self.tob.retire(
            sequence,
            self.current_batch,
            self.proposed_rounds,
            self.buffered_brd,
            self.replica.sharing.buffered_shares,
        )

    def transfer_state(self, reporter: str) -> None:
        """The engine's ``transfer_state``: send a member behind what we keep our state."""
        replica = self.replica
        if reporter in replica.local_members():
            replica.apl.send(reporter, replica.execution.curr_state(replica.round_number))

    def dispatch_brd(self, sender: str, envelope: Envelope) -> None:
        round_number = envelope.payload.round_number
        brd = self.brd_instances.get(round_number)
        if brd is not None:
            brd.on_message(sender, envelope)
        elif round_number > self.replica.round_number:
            self.buffered_brd.setdefault(round_number, []).append((sender, envelope))

    def on_brd_timer(self, round_number: int) -> None:
        brd = self.brd_instances.get(round_number)
        if brd is not None:
            brd.on_timeout()
            if round_number in self.tob.decisions:
                # The round is ordered but not disseminated here: if the
                # cluster retired it, a report draws a state transfer.
                self.tob.request_catchup(round_number)

    # -- BRD <-> consensus piggyback (quiet rounds; see core/brd.py) ------ #
    def round_marker(self, sequence: int):
        brd = self.brd_instances.get(sequence)
        if brd is None:
            return None
        return brd.make_marker(self.replica.collector.current_recs())

    def on_round_marker(self, sequence: int, sender: str, marker) -> None:
        brd = self.brd_instances.get(sequence)
        if brd is not None:
            brd.on_marker(sender, marker)

    def decide_extra(self, sequence: int):
        brd = self.brd_instances.get(sequence)
        return None if brd is None else brd.take_quiet_proof()

    def on_decide_extra(self, sequence: int, sender: str, extra) -> None:
        brd = self.brd_instances.get(sequence)
        if brd is not None:
            brd.on_quiet_aggregate(sender, extra)


class GlobalSharing:
    """Stage 2 (Alg. 1): ship the sealed bundle out, share received ones locally.

    The leader sends its cluster's bundle to the first ``f_j + 1`` members of
    every remote cluster (``Inter``).  On the fault-free path every member
    then receives each remote bundle exactly once, by three rules:

    1. The first-indexed target sends the full ``LocalShare`` to itself and
       to the members the leader did not reach, and a header (no bundle)
       to the other targets, which hold the bundle from their own ``Inter``.
    2. A later target whose ``Inter`` is not followed by the first one's
       share within :meth:`grace` re-broadcasts the bundle itself, to the
       members of the view it received the ``Inter`` in.
    3. A target holding a header but no ``Inter`` one :meth:`grace` later
       was skipped by the remote leader: it asks the header's sender
       (``ShareRequest``).

    Beside them, a member holding a bundle answers a local ``LComplaint``
    about it with the bundle, so a first target that shares with the other
    targets only costs the rest of the cluster one stage-2 timeout.
    """

    def __init__(self, replica: HamavaReplica) -> None:
        self.replica = replica
        #: ``(cluster_id, round)`` keys of LocalShares (full or header)
        #: received from peers: a later-indexed Inter target stays quiet.
        self.peer_shared: Set[Tuple[int, int]] = set()
        #: ``(cluster_id, round)`` keys this later-indexed target got an
        #: Inter for: a header for them needs no pull.
        self.inter_received: Set[Tuple[int, int]] = set()
        #: Shares for rounds this replica has not started yet.
        self.buffered_shares: Dict[int, List[Tuple[str, LocalShare]]] = {}
        #: The bundles the last executed round ran: answered from when a
        #: peer asks one round late, and the own one is re-sent by a new
        #: leader (remote clusters may be one round behind).
        self.previous_operations: Dict[int, OperationsBundle] = {}
        #: :meth:`grace` per remote cluster; cleared with the view caches.
        self.grace_cache: Dict[int, float] = {}
        #: :meth:`bundle_valid`'s verdict token per remote cluster; cleared
        #: with the view caches.
        self.check_tokens: Dict[int, object] = {}
        #: Shares this replica re-broadcast because the first-indexed Inter
        #: receiver's did not arrive within the grace period.
        self.fallback_broadcasts = 0

    def forget_view(self) -> None:
        """Drop the per-view-epoch caches; the replica's view changed."""
        self.grace_cache.clear()
        self.check_tokens.clear()

    def open_round(self, round_number: int) -> None:
        """Forget old share keys and replay shares that arrived early."""
        horizon = round_number - 1
        if self.peer_shared:
            self.peer_shared = {key for key in self.peer_shared if key[1] >= horizon}
        if self.inter_received:
            self.inter_received = {key for key in self.inter_received if key[1] >= horizon}
        for sender, share in self.buffered_shares.pop(round_number, ()):
            self.on_local_share(sender, share)

    def grace(self, cluster_id: int) -> float:
        """How long a target waits on a peer for ``cluster_id``'s bundle.

        ``INTER_SHARE_GRACE`` covers the local hop; twice the jitter spread
        of the Inter link covers the widest gap between two targets' Inter
        arrivals.  The spread is the one the network prices the link with
        (sampled now under an RTT trace), cached per view epoch.
        """
        grace = self.grace_cache.get(cluster_id)
        if grace is None:
            replica = self.replica
            model = replica.network.latency_model
            source = replica.members(cluster_id)[0]
            params = None
            if model.trace is not None:
                params = model.traced_pair_params(source, replica.process_id, replica.simulator.now)
            if params is None:
                params = model.pair_params(source, replica.process_id)
            grace = self.grace_cache[cluster_id] = INTER_SHARE_GRACE + 2 * params[1]
        return grace

    def inter_broadcast(self, bundle: OperationsBundle) -> None:
        """Leader: send ``bundle`` to ``f_j + 1`` members of every remote cluster.

        One multicast in sorted view order: the network staggers, draws and
        numbers each copy exactly as one send per target would.
        """
        replica = self.replica
        if replica.byzantine.suppress_inter(replica.simulator.now):
            return
        own_cluster = replica.cluster_id
        targets: List[str] = []
        for cluster_id in replica.sorted_view_ids():
            if cluster_id != own_cluster:
                targets += replica.members(cluster_id)[: replica.faults(cluster_id) + 1]
        if targets:
            replica.apl.send_many(
                targets, Inter(round_number=bundle.round_number, cluster_id=own_cluster, bundle=bundle)
            )

    def rebroadcast(self) -> None:
        """Alg. 8: a new leader re-sends this round's and the last round's bundle."""
        replica = self.replica
        bundle = replica.round_state.bundle
        if bundle is not None:
            self.inter_broadcast(bundle)
        previous = self.previous_operations.get(replica.cluster_id)
        if previous is not None:
            self.inter_broadcast(previous)

    def bundle_valid(self, cluster_id: int, round_number: int, bundle: OperationsBundle) -> bool:
        """Whether ``bundle`` carries ``2f_j + 1`` certificates for its claimed round.

        The same sealed bundle object is checked by every Inter target and
        every LocalShare receiver, and each one's check is already billed to
        its simulated CPU.  A passing check is remembered on the bundle and
        on each certificate it covers, under a key holding every input
        besides the bundle (the claimed coordinates, so a relabelled bundle
        is checked afresh); a hit needs all of them, so a replaced signer
        entry, which clears its certificate's verdicts, also clears this one.
        Asking the certificates' own memos instead would re-derive both
        digests on every call: 61 more calls per operation on ``geo32``.

        The key is ``(token, round)``: the registry interns one token per
        ``(cluster, members, threshold, parallel)``, which this replica
        keeps per remote cluster for the current view epoch, so a hit
        hashes two fields and reads neither the view nor the membership.
        """
        replica = self.replica
        token = self.check_tokens.get(cluster_id)
        if token is None:
            if cluster_id not in replica.view:
                return False
            token = self.check_tokens[cluster_id] = replica.network.registry.verdict_token(
                cluster_id,
                replica.members(cluster_id),
                2 * replica.faults(cluster_id) + 1,
                replica.config.parallel_reconfig,
            )
        key = (token, round_number)
        txn_certificate = bundle.txn_certificate
        ready_certificate = bundle.recs_ready_certificate
        parallel = replica.config.parallel_reconfig
        if (
            key in bundle.verdicts
            and key in txn_certificate.verdicts
            and (not parallel or key in ready_certificate.verdicts)
        ):
            return True
        registry = replica.network.registry
        members = replica.members(cluster_id)
        threshold = 2 * replica.faults(cluster_id) + 1
        expected = commit_digest(cluster_id, round_number, bundle.transactions)
        if not registry.certificate_valid(txn_certificate, members, threshold, digest=expected):
            return False
        if parallel:
            expected = ready_digest(cluster_id, round_number, bundle.reconfigs)
            if not registry.certificate_valid(ready_certificate, members, threshold, digest=expected):
                return False
            ready_certificate.remember_verdict(key)
        elif bundle.reconfigs:
            return False
        txn_certificate.remember_verdict(key)
        bundle.remember_verdict(key)
        return True

    def held(self, cluster_id: int, round_number: int) -> Optional[OperationsBundle]:
        """The bundle of ``(cluster_id, round_number)`` if this or the last round adopted it."""
        for operations in (self.replica.operations, self.previous_operations):
            bundle = operations.get(cluster_id)
            if bundle is not None and bundle.round_number == round_number:
                return bundle
        return None

    def on_inter(self, sender: str, message: Inter) -> None:
        """A remote leader's bundle: validate it, then share it in this cluster."""
        replica = self.replica
        round_number = message.round_number
        if round_number < replica.round_number:
            return
        cluster_id = message.cluster_id
        bundle = message.bundle
        if not self.bundle_valid(cluster_id, round_number, bundle):
            return
        share, header = message.shares()
        process_id = replica.process_id
        members = replica.local_members()
        reached = replica.local_faults() + 1
        apl = replica.apl
        if process_id == members[0]:
            # Rule 1: full copies only where the remote leader did not reach.
            apl.send_many((process_id, *members[reached:]), share)
            if reached > 1:
                apl.send_many(members[1:reached], header)
            return
        if process_id not in members[1:reached]:
            # Not a target under our view (the leader's view of this
            # cluster differs): share with everyone.
            replica.abeb.broadcast(share)
            return
        # A later target adopts the bundle at once (a share to self, 0 ms
        # loop-back) and re-broadcasts it only if the first target's share
        # (rule 2) is not here one grace later.
        key = (cluster_id, round_number)
        self.inter_received.add(key)
        apl.send(process_id, share)
        if key not in self.peer_shared:
            replica.simulator.schedule(
                self.grace(cluster_id),
                self._share_grace_expired,
                arg=(share, members),
                label=f"{process_id}:share-grace",
            )

    def _share_grace_expired(self, pending: Tuple[LocalShare, Tuple[str, ...]]) -> None:
        replica = self.replica
        if replica.mode != MODE_ACTIVE or replica.crashed:
            return
        share, members = pending
        if (share.cluster_id, share.round_number) in self.peer_shared:
            return  # the first-indexed receiver's share made it; stay quiet
        self.fallback_broadcasts += 1
        # The members of the view the Inter arrived in: a member that leaves
        # in that round still needs the bundle to execute its own leave.
        process_id = replica.process_id
        replica.apl.send_many([member for member in members if member != process_id], share)

    def _pull_if_skipped(self, pending: Tuple[str, LocalShare]) -> None:
        replica = self.replica
        if replica.mode != MODE_ACTIVE or replica.crashed:
            return
        sender, header = pending
        cluster_id, round_number = header.cluster_id, header.round_number
        if (
            (cluster_id, round_number) in self.inter_received
            or round_number < replica.round_number
            or self.held(cluster_id, round_number) is not None
        ):
            return
        replica.apl.send(sender, ShareRequest(round_number=round_number, cluster_id=cluster_id))

    def on_share_request(self, sender: str, message: ShareRequest) -> None:
        """A local target the remote leader skipped asks for a bundle we hold."""
        self.answer(sender, message.cluster_id, message.round_number)

    def on_lcomplaint(self, sender: str, envelope: Envelope) -> None:
        """Answer a local complaint about a bundle we hold, then hand it to Alg. 2."""
        replica = self.replica
        complaint = envelope.payload
        if sender != replica.process_id and complaint.origin_cluster == replica.cluster_id:
            if complaint.round_number < replica.round_number - 1:
                # Older than the bundles we keep: it is behind, send our state.
                replica.ordering.transfer_state(sender)
            else:
                self.answer(sender, complaint.target_cluster, complaint.round_number)
        replica.rlc.on_message(sender, envelope)

    def answer(self, sender: str, cluster_id: int, round_number: int) -> None:
        """Send a local member the bundle of ``(cluster_id, round_number)`` if held."""
        replica = self.replica
        if sender not in replica.view[replica.cluster_id]:
            return
        bundle = self.held(cluster_id, round_number)
        if bundle is not None:
            replica.apl.send(
                sender, LocalShare(round_number=round_number, cluster_id=cluster_id, bundle=bundle)
            )

    def on_local_share(self, sender: str, message: LocalShare) -> None:
        """A peer's (or our own) share of a remote bundle, or a header."""
        replica = self.replica
        cluster_id = message.cluster_id
        round_number = message.round_number
        if sender != replica.process_id:
            self.peer_shared.add((cluster_id, round_number))
        bundle = message.bundle
        if bundle is None:
            # Rule 3: a header without our own Inter may mean we were skipped.
            if (
                round_number >= replica.round_number
                and cluster_id in replica.view
                and (cluster_id, round_number) not in self.inter_received
            ):
                replica.simulator.schedule(
                    self.grace(cluster_id),
                    self._pull_if_skipped,
                    arg=(sender, message),
                    label=f"{replica.process_id}:share-pull",
                )
            return
        if round_number < replica.round_number:
            return
        if round_number > replica.round_number or replica.round_state.stage2_done_at is not None:
            # A later round's share, or this round's before ``start_round``
            # opened it (``operations`` still holds the executed round's).
            self.buffered_shares.setdefault(round_number, []).append((sender, message))
            return
        if cluster_id in replica.operations:
            return
        # Shares are shipped at envelope-only cost (see LocalShare): only
        # the one copy that survives the dedup above pays the certificate
        # verifications, charged here against this replica's receive CPU.
        # Self-shares are exempt — an Inter receiver validated (and was
        # charged for) the bundle in ``on_inter`` before sharing it.
        if sender != replica.process_id:
            signatures = len(bundle.txn_certificate) if bundle.txn_certificate is not None else 0
            if replica.config.parallel_reconfig and bundle.recs_ready_certificate is not None:
                signatures += len(bundle.recs_ready_certificate)  # both certificates' worth
            replica.network.charge_verification(replica.process_id, signatures)
        if not self.bundle_valid(cluster_id, round_number, bundle):
            return
        replica.operations[cluster_id] = bundle
        replica.rlc.stop_timer(cluster_id)
        replica.execution.maybe_execute()


class Execution:
    """Stage 3 (Alg. 10): execute the round, answer clients, apply reconfigurations.

    Once every cluster's bundle is in, they run in the predefined (sorted)
    cluster order on the shared execution plans; this replica answers the
    clients it owes, applies each cluster's reconfigurations to the view,
    kick-starts the joiners of its own cluster, records the round and
    schedules the next one.
    """

    def __init__(self, replica: HamavaReplica) -> None:
        self.replica = replica
        self.executed_rounds = 0
        self.reconfigs_applied: List[Tuple[int, ReconfigRequest]] = []

    def maybe_execute(self) -> None:
        """Execute the round once every cluster's bundle has arrived."""
        replica = self.replica
        if len(replica.operations) < len(replica.view):
            return
        state = replica.round_state
        if state.stage2_done_at is not None:
            return
        now = state.stage2_done_at = replica.simulator.now
        operations = dict(replica.operations)
        own_cluster = replica.cluster_id
        parallel_reconfig = replica.config.parallel_reconfig
        local_reconfigs: Tuple[ReconfigRequest, ...] = ()
        operation_count = 0
        # The predefined cluster order is the sorted view order; snapshot it
        # before the loop because applying reconfigs below churns the view.
        execution_order = [cid for cid in replica.sorted_view_ids() if cid in operations]
        replica.kv.begin_round(replica.round_number)
        for cluster_id in execution_order:
            bundle = operations[cluster_id]
            self.execute_batch(bundle.transactions)
            operation_count += len(bundle.transactions)
            reconfigs = bundle.reconfigs if parallel_reconfig else _ordered_reconfigs(bundle)
            for request in reconfigs:
                self.apply_reconfig(cluster_id, request)
                operation_count += 1
            if cluster_id == own_cluster:
                local_reconfigs = reconfigs
        front = replica.front
        if front.pending_batch:
            front.flush_batch_responses()
        if local_reconfigs:
            self.kickstart(local_reconfigs)
            replica.collector.mark_applied(local_reconfigs)

        self.executed_rounds += 1
        replica.sharing.previous_operations = operations

        execution_delay = max(operation_count, 1) * EXECUTION_COST_PER_OP * replica.cpu_factor
        round_end = now + execution_delay
        if replica.metrics is not None and replica.is_reporter:
            replica.metrics.record_round(
                cluster_id=own_cluster,
                round_number=replica.round_number,
                started_at=state.started_at,
                stage1_done_at=state.stage1_done_at or now,
                stage2_done_at=now,
                ended_at=round_end,
                transactions=sum(len(b.transactions) for b in operations.values()),
                reconfigs=sum(len(b.reconfigs) for b in operations.values()),
            )

        if replica.mode == MODE_LEFT:
            return
        replica.round_number += 1
        replica.after(execution_delay, replica.start_round, label=f"{replica.process_id}:next-round")

    def execute_batch(self, transactions: List[Transaction]) -> None:
        """Execute one cluster's decided batch and answer the clients we owe.

        We respond to a transaction if its client contacted us, or — once,
        at its first position — if the client retried it through us after
        its original replica failed (clients de-duplicate responses by
        transaction id).  The batch's plan is shared by every executor.
        """
        replica = self.replica
        round_number = replica.round_number
        plan = replica.kv.ledger.plan(transactions, round_number)
        positions = plan.origins.get(replica.process_id, ())
        front = replica.front
        forwarded = front.forwarded
        if forwarded:
            retried = forwarded.keys() & plan.first_positions.keys()
            if retried:
                first_positions = plan.first_positions
                for txn_id in retried:
                    del forwarded[txn_id]
                positions = sorted({*positions, *(first_positions[txn_id] for txn_id in retried)})
        values = replica.kv.execute(plan, positions)
        batch_clients = front.batch_clients
        for position, value in zip(positions, values):
            transaction = transactions[position]
            client_id = transaction.client_id
            if client_id in batch_clients:
                # Open-loop clients get their acks batched per execution.
                front.pending_batch.setdefault(client_id, []).append((transaction.txn_id, value))
                continue
            replica.apl.send(
                client_id, ClientResponse(transaction.txn_id, value, round_number, replica.leader)
            )

    def apply_reconfig(self, cluster_id: int, request: ReconfigRequest) -> None:
        """Apply one join/leave to the view; the membership caches start over."""
        replica = self.replica
        members = replica.view.get(cluster_id, frozenset())
        if request.is_join:
            members = members | {request.process_id}
        elif request.is_leave:
            members = members - {request.process_id}
        replica.view[cluster_id] = replica.system_config.shared_membership(members)
        replica.invalidate_view_caches()
        self.reconfigs_applied.append((replica.round_number, request))
        if replica.metrics is not None and replica.is_reporter:
            replica.metrics.record_reconfig(
                kind=request.kind,
                process_id=request.process_id,
                cluster_id=cluster_id,
                round_number=replica.round_number,
                applied_at=replica.simulator.now,
            )

    def curr_state(self, round_number: int) -> CurrState:
        """This replica's state transfer: its store, view and leader, resuming at ``round_number``."""
        replica = self.replica
        return CurrState(
            cluster_id=replica.cluster_id,
            round_number=round_number,
            members=replica.local_members(),
            state_snapshot=replica.kv.snapshot(),
            system_view={cid: replica.members(cid) for cid in replica.view},
            leader=replica.leader,
            leader_ts=replica.leader_ts,
        )

    def kickstart(self, local_reconfigs: Tuple[ReconfigRequest, ...]) -> None:
        """Send joiners the state to start from; retire if this replica left."""
        replica = self.replica
        for request in local_reconfigs:
            if request.is_join and request.process_id != replica.process_id:
                replica.apl.send(request.process_id, self.curr_state(replica.round_number + 1))
        for request in local_reconfigs:
            if request.is_leave and request.process_id == replica.process_id:
                replica.mode = MODE_LEFT
                replica.left_at = replica.simulator.now
                replica.rlc.stop_all()
                replica.ordering.batch_timer.stop()
                replica.front.announce_departure()
                replica.crash()  # A cleanly departed replica stops sending and receiving.


def _ordered_reconfigs(bundle: OperationsBundle) -> Tuple[ReconfigRequest, ...]:
    """Single-workflow baseline: the joins/leaves encoded as transactions."""
    return tuple(sorted({
        join_request(t.key, bundle.cluster_id, t.value or "")
        if t.op == "join"
        else leave_request(t.key, bundle.cluster_id)
        for t in bundle.transactions
        if t.op in ("join", "leave")
    }))


__all__ = ["ByzantineBehavior", "ClientFront", "Execution", "GlobalSharing", "HamavaReplica",
           "LocalOrdering", "MODE_ACTIVE", "MODE_IDLE", "MODE_JOINING", "MODE_LEFT"]
