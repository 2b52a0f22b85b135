"""The simulated network: a single-pass message-delivery pipeline.

The network routes :class:`~repro.net.message.Envelope` objects between
registered processes.  For a message that crosses the wire, the delivery
time is the sum of

* a sender-side serialization stagger (per destination),
* the geo latency from the :class:`~repro.net.latency.LatencyModel`
  (including a bandwidth term proportional to message size), and
* receiver-side processing time, served from a per-process serial CPU queue
  whose cost grows with the number of signatures the message carries.

The CPU queue is what makes protocol *message complexity* visible in
simulated throughput: a PBFT-style all-to-all phase loads every replica with
O(n) verifications per decision, while a HotStuff-style linear phase loads
only the leader.  This mirrors the throughput gap the paper observes between
AVA-BFTSMART and AVA-HOTSTUFF.

Scheduling: one rule for every receiver slot
--------------------------------------------
The two places that put a wire message on a receiver's CPU —
:meth:`Network.multicast` (a point-to-point ``send`` is a fan-out of one)
and the cross-cluster mailbox's ``deliver_cross`` — follow one rule, decided
per link by the latency model's pair constants (the verdict rides in the
route memo and in the mailbox entry):

* **Same-region link** (pair base latency <= the model's intra-region
  latency).  All three legs — the sender's departure stagger, the link
  latency draw, the receiver's CPU hand-over slot — are computed in one pass
  when the message is scheduled (at the barrier, for mailbox traffic), and
  the message costs exactly **one** kernel event, fired at its hand-over time
  (``finish = max(arrival, recv_free) + processing``).  The slot is booked
  at most one LAN latency (plus, for cross-cluster LAN traffic, one barrier
  window of the same size) before the message arrives, so the booking can
  delay a competing message by no more than that.
* **Cross-region link.**  The message is scheduled as an *arrival* event at
  its arrival time; that event takes the slot
  ``max(now, recv_free) + processing`` (``_take_slot``, the one routine that
  books a deferred slot), joins the port FIFO and pushes the hand-over
  event — **two** kernel events.  Booking a WAN message's slot
  when it is sent (or at the barrier before it lands) would reserve the
  receiver's CPU up to a one-way WAN latency ahead of time, and every LAN
  vote, proposal or share scheduled meanwhile for that replica would queue
  behind traffic still on the wire: head-of-line blocking that held a
  32-cluster WAN deployment's 4-replica LAN decisions at 112 ms against
  17 ms on a LAN-only run.  A port deregistered while the message was in
  flight drops it at arrival.

Either way the receiver's CPU queue is a watermark plus a FIFO: hand-over
times are assigned monotonically per destination in *slot-assignment order*
(fused messages when scheduled, deferred ones when they arrive), so the
FIFO's pop order equals the kernel's fire order.  Among same-region
messages jitter can invert two arrivals, in which case the earlier-scheduled
message is served first (the inversion is bounded by the LAN jitter scale);
cross-region messages are served in arrival order.
Send serialization and receive processing are modelled as two overlapping
per-process resources (see :class:`_Port`).

Loop-back
---------
Self-addressed messages (``abeb`` includes the sender) take a true 0 ms
loop-back: they skip the latency model (no jitter draw), the drop rules, and
the signature verification, and are handed over as simulator *microtasks* at
the same virtual instant — zero kernel events.  Handling one's own message
still occupies the receiver CPU for the base processing cost (no
verification charge — a process trusts its own signatures), so loop-back
does not hand protocols with all-to-all local phases a free 1/n of their
processing load.  Loop-backs are accounted separately from wire traffic
(``loopback_messages``).

Fault injection supports crash-stop processes, directed message filters
(used to model partitions and Byzantine message dropping), and statistics
used by the complexity analyses.  Drop rules see ``(sender, destination,
payload)``: envelopes no longer carry a destination (they are shared across
a whole fan-out), and rules run at send time, before an event is scheduled.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from heapq import heappush

from repro.errors import NetworkError
from repro.net.crypto import KeyRegistry, Signature
from repro.net.latency import LatencyModel
from repro.net.message import Envelope, Message
from repro.sim.events import Event
from repro.sim.process import Process
from repro.sim.simulator import Simulator

#: A drop rule: returns True when the message must be dropped.  Evaluated at
#: send time, once per (message, destination) pair, for wire traffic only —
#: loop-back (self-addressed) messages never traverse drop rules.
DropRule = Callable[[str, str, Message], bool]


#: Processing-cost constants (seconds).  Sender-side cost to serialize and
#: push one message:
SEND_OVERHEAD = 0.00002
#: Receiver-side fixed cost to handle one message:
BASE_PROCESSING = 0.00001
#: Receiver-side cost per signature verification:
SIGNATURE_VERIFY_COST = 0.00008


@dataclass
class NetworkStats:
    """Counters describing all traffic that crossed the network.

    ``messages_sent`` / ``messages_delivered`` / ``bytes_sent`` count *wire*
    traffic only.  Self-addressed messages never reach the wire: delivered
    loop-backs are counted in ``loopback_messages`` instead (dropped ones —
    the sender crashed within the same instant — still count as dropped).
    ``by_type`` is a census of every send, loop-back included.

    ``link_latency`` aggregates the latency-model draw of every *scheduled*
    wire message as per-sender ``[sum, count]`` accumulators; loop-backs are
    excluded by construction, so per-link latency analyses (E2) are not
    diluted by 0 ms self-deliveries.  The accumulators are per sender — not
    one global float pair — because float addition is order-sensitive: a
    sender's draws are added one wire message at a time, in its own send
    order (invariant under kernel sharding), so a fan-out sums exactly like
    the point-to-point sends it stands for, however a sender groups its
    sends into calls; cross-sender folds always run in sorted sender order,
    so a sharded run's merged stats are bit-identical to the serial run's.
    """

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    bytes_sent: int = 0
    loopback_messages: int = 0
    link_latency: Dict[str, List] = field(default_factory=dict)
    by_type: Counter = field(default_factory=Counter)

    @property
    def link_latency_sum(self) -> float:
        """Total latency-model delay (seconds), folded in sorted sender order."""
        link_latency = self.link_latency
        return sum(link_latency[sender][0] for sender in sorted(link_latency))

    @property
    def link_latency_count(self) -> int:
        """Number of scheduled wire messages with a latency draw."""
        return sum(acc[1] for acc in self.link_latency.values())

    def mean_link_latency(self) -> float:
        """Mean latency-model delay (seconds) over scheduled wire messages."""
        count = self.link_latency_count
        if not count:
            return 0.0
        return self.link_latency_sum / count

    def merge(self, other: "NetworkStats") -> None:
        """Fold another shard's counters into this one (ints and keyed sums
        only, so the result is independent of merge order)."""
        self.messages_sent += other.messages_sent
        self.messages_delivered += other.messages_delivered
        self.messages_dropped += other.messages_dropped
        self.bytes_sent += other.bytes_sent
        self.loopback_messages += other.loopback_messages
        for sender, acc in other.link_latency.items():
            mine = self.link_latency.get(sender)
            if mine is None:
                self.link_latency[sender] = [acc[0], acc[1]]
            else:
                mine[0] += acc[0]
                mine[1] += acc[1]
        self.by_type.update(other.by_type)

    def snapshot(self) -> Dict[str, int]:
        """A plain-dict snapshot of the scalar counters."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "bytes_sent": self.bytes_sent,
            "loopback_messages": self.loopback_messages,
        }


class _Port:
    """Per-registered-process delivery state owned by the network.

    Attributes:
        process: The registered process object.
        registered: Cleared on deregistration so in-flight hand-overs drop
            (a later re-registration creates a fresh port).
        send_free: Send-serialization watermark (virtual time the process's
            outgoing link engine is next free).
        recv_free: Receive-CPU watermark (virtual time the CPU finishes its
            last accepted message; loop-back handling charges here too).
        queue: FIFO of envelopes awaiting hand-over, in the same order as
            their hand-over events fire (slots are assigned monotonically
            per port — at scheduling time on same-region links, at arrival
            on cross-region ones — ties broken by kernel sequence).
        loop_queue: FIFO of self-addressed envelopes awaiting their 0 ms
            microtask hand-over.
        lat_random: This sender's private jitter stream (bound C-level
            draw).  Per-sender streams make a sender's latency draw sequence
            a function of its own send order only — the property that keeps
            fixed-seed runs bit-identical whatever the kernel is sharded
            into (a shared stream would interleave draws in global event
            order, which sharding reorders).
        lat_acc: This sender's ``[sum, count]`` link-latency accumulator,
            aliased into ``NetworkStats.link_latency`` (same object).
        owner: The owner-cluster key of this process (``None`` outside a
            deployment).  Messages between processes of *different* owner
            clusters always take the cross-cluster mailbox, even in-process,
            so routing never depends on the shard layout.
        xseq: Outbound cross-cluster sequence number; with the arrival time
            and sender id it gives mailbox entries a total order that every
            shard layout reproduces.
        route: Per-destination route memo, ``destination -> (target_port,
            base, spread, fused)`` — the owner-routing verdict fused with
            the latency model's pair constants, so the hot path resolves
            both with a single dict lookup.  ``target_port is None`` means
            the cross-cluster mailbox.  ``fused`` is the same-region verdict
            (``base`` <= the intra-region latency; always false without the
            CPU model, which has no slot to take): the receiver slot is
            booked when the message is scheduled, not when it arrives.
            Unknown destinations (drops) are never
            cached.  Entries are purged on (de)registration of the
            destination and cleared wholesale when the latency model's
            topology changes (it calls the network back — see
            ``Network.__init__``).

    The send and receive watermarks are deliberately independent resources —
    a serialization/NIC engine and a processing CPU.  Same-region receive
    slots are booked before arrival, and a shared watermark would make a
    replica's sends queue behind work still in flight on the wire
    (serialising whole rounds behind the link latency), so the network
    models the two directions as overlapping resources instead.
    """

    __slots__ = (
        "process",
        "registered",
        "send_free",
        "recv_free",
        "queue",
        "loop_queue",
        "lat_random",
        "lat_acc",
        "owner",
        "xseq",
        "route",
        "cpu_factor",
    )

    def __init__(self, process: Process) -> None:
        self.process = process
        self.registered = True
        self.send_free = 0.0
        self.recv_free = 0.0
        self.queue: deque = deque()
        self.loop_queue: deque = deque()
        self.lat_random: Callable[[], float] = None  # bound in register()
        self.lat_acc: List = None  # bound in register()
        self.owner: object = None
        self.xseq = 0
        self.route: Dict[str, tuple] = {}
        #: Receiver-CPU multiplier (gray/slow replicas).  1.0 for healthy
        #: processes — and ``x * 1.0 == x`` is IEEE-exact, so healthy runs
        #: are bit-identical to the pre-gray pipeline.
        self.cpu_factor = 1.0


class Network:
    """Routes messages between processes over the simulated topology.

    The network *is* the delivery pipeline: it owns the ports, the drop
    rules, the cross-cluster mailbox and the statistics.  :meth:`multicast`
    is the only place a wire message is priced and scheduled — departure
    and link latency in a single pass; on a same-region link it also books
    the CPU hand-over and schedules exactly one kernel event per wire
    message, on a cross-region link the slot is taken by an arrival event
    (two kernel events).  Loop-backs ride the simulator's microtask queue
    (zero).

    Args:
        simulator: The simulation kernel.
        latency_model: Geo latency model; processes must be placed on it.
        registry: Key registry used to sign and verify envelopes.
    """

    def __init__(self, simulator: Simulator, latency_model: LatencyModel, registry: KeyRegistry) -> None:
        self.simulator = simulator
        self.latency_model = latency_model
        self.registry = registry
        self.stats = NetworkStats()
        # The cost constants are read on every send; bind them once instead
        # of paying module-global reads per message.
        self._send_overhead = SEND_OVERHEAD
        self._base_processing = BASE_PROCESSING
        self._signature_verify_cost = SIGNATURE_VERIFY_COST
        #: The simulator's event queue and microtask deque, held directly:
        #: delivery events are the most-scheduled events in any run, so they
        #: are pushed without the per-call scheduling wrapper (hand-over
        #: times are >= now by construction, so the wrapper's guard adds
        #: nothing).
        self._equeue = simulator._queue
        self._micro = simulator._microtasks
        #: The latency model's constants, bound once so the per-message
        #: latency is computed inline.  The (base, spread) pair constants
        #: live in the per-port route memos (see :class:`_Port`), filled
        #: from ``pair_params`` on miss; ``place``/``set_rtt`` invalidate
        #: those memos through the hook below.  The jitter draw itself comes
        #: from the *sender's* per-port stream, never from the model's.
        self._lat_bandwidth = latency_model._bandwidth
        self._lat_overhead = latency_model._per_message_overhead
        self._lat_intra = latency_model._intra_region_latency
        latency_model._invalidate_hooks.append(self._clear_route_memos)
        self.ports: Dict[str, _Port] = {}
        self.drop_rules: List[DropRule] = []
        #: Owner-cluster map (process id -> cluster key), assigned by the
        #: harness before any registration.  Empty for standalone networks —
        #: no message then takes the mailbox.
        self.owners: Dict[str, object] = {}
        #: Cross-cluster mailbox: ``(arrival, sender, xseq, destination,
        #: envelope, fused)`` entries awaiting the next lookahead barrier.  The
        #: sort key (arrival, sender, xseq) is a total order every shard
        #: layout reproduces, so injection order — and with it every
        #: receiver-CPU slot — is shard-count invariant.
        self.outbox: List[tuple] = []
        #: In-process mode: the network drains its own mailbox with a
        #: priority -1 flush event at each lookahead barrier, emulating the
        #: forked workers' between-windows exchange.  A forked worker clears
        #: this and drains ``take_outbox`` at its barriers instead.
        self.self_flush = True
        self._flush_pending = False
        #: The conservative barrier grid (``time -> smallest barrier strictly
        #: after it``, or ``None`` when no two owner clusters exist).  The
        #: deployment installs ``Deployment.next_barrier`` — the same function
        #: the forked workers walk, which is what keeps serial and forked
        #: runs byte-identical.
        self.next_barrier: Optional[Callable[[float], Optional[float]]] = None
        #: Optional load-dependent latency surcharge (one shared
        #: :class:`~repro.net.adversity.CongestionModel` per deployment).
        self.congestion = None

    # ------------------------------------------------------------------ #
    # Membership
    # ------------------------------------------------------------------ #
    def register(self, process: Process, region: str = "us-west1") -> None:
        """Attach a process to the network and place it in a region.

        Creates (or, for a new process object under a known id, re-creates)
        the delivery port.
        """
        process_id = process.process_id
        port = self.ports.get(process_id)
        if port is None or port.process is not process:
            if port is not None:
                port.registered = False  # in-flight hand-overs to the old port drop
                # Cached routes in other ports point at the old port object,
                # whose watermarks are now dead state — purge them so senders
                # re-resolve against the replacement.
                self._purge_route(process_id)
            port = self.ports[process_id] = _Port(process)
            # The per-sender jitter stream is derived from the *kernel's* root
            # stream by process id alone, so the same process gets the same
            # stream whichever shard (hence kernel) it lands on.
            port.lat_random = self.simulator.rng.child(f"latency/{process_id}").raw_random
            port.lat_acc = self.stats.link_latency.setdefault(process_id, [0.0, 0])
            port.owner = self.owners.get(process_id)
        self.latency_model.place(process_id, region)
        self.registry.register(process_id)
        process.attach(self)

    def deregister(self, process_id: str) -> None:
        """Detach a process; in-flight and subsequent messages to it drop."""
        port = self.ports.pop(process_id, None)
        if port is not None:
            port.registered = False
            self._purge_route(process_id)

    def _purge_route(self, process_id: str) -> None:
        """Drop every cached route targeting ``process_id`` (rare: joins/leaves)."""
        for other in self.ports.values():
            other.route.pop(process_id, None)

    def _clear_route_memos(self) -> None:
        """Latency-model invalidation hook: topology changed, re-resolve all."""
        for other in self.ports.values():
            other.route.clear()

    # ------------------------------------------------------------------ #
    # Fault injection
    # ------------------------------------------------------------------ #
    def add_drop_rule(self, rule: DropRule) -> DropRule:
        """Install a drop rule; returns it so callers can remove it later."""
        self.drop_rules.append(rule)
        return rule

    def remove_drop_rule(self, rule: DropRule) -> None:
        """Remove a previously installed drop rule."""
        if rule in self.drop_rules:
            self.drop_rules.remove(rule)

    # ------------------------------------------------------------------ #
    # Receiver-state-aware CPU charges
    # ------------------------------------------------------------------ #
    def charge_verification(self, process_id: str, signatures: int) -> None:
        """Charge ``signatures`` verifications to a receiver's CPU, lazily.

        The fused pipeline prices verification at *send* time, which is
        right only when every receiver verifies every message.  Handlers
        that verify conditionally — a ``LocalShare`` receiver drops
        duplicates before touching the certificates — send the message at
        its envelope-only cost and call this from inside the handler when
        they really do the work.  The charge advances the receiver's
        ``recv_free`` watermark, delaying hand-over slots assigned *after*
        this instant; messages already scheduled keep their slots (the
        fused schedule is immutable once written, and the deterministic
        handler order makes the watermark shard-layout invariant).
        """
        if signatures <= 0:
            return
        port = self.ports.get(process_id)
        if port is None:
            return
        now = self.simulator.now
        free = port.recv_free
        if free < now:
            free = now
        port.recv_free = free + signatures * self._signature_verify_cost * port.cpu_factor

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #
    def send(
        self,
        sender: str,
        destination: str,
        payload: Message,
        signature: Optional[Signature] = None,
    ) -> None:
        """Send a single message: a fan-out of one (see :meth:`multicast`)."""
        self.multicast(sender, (destination,), payload, signature)

    def multicast(
        self,
        sender: str,
        destinations: Sequence[str],
        payload: Message,
        signature: Optional[Signature] = None,
    ) -> None:
        """Send one message to many destinations with sender-side staggering.

        The only place a wire message is priced and scheduled; this loop
        runs once per (message, destination) pair — the hottest code in any
        simulation after the event loop itself.  One immutable
        :class:`Envelope` header is shared across the whole fan-out.
        Self-addressed copies take the 0 ms loop-back and pay no
        serialization stagger.
        """
        port = self.ports.get(sender)
        if port is None:
            raise NetworkError(f"unknown sender {sender!r}")
        if port.process.crashed:
            return
        now = self.simulator.now
        size = payload.cached_size()
        stats = self.stats
        stats.by_type[type(payload).__name__] += len(destinations)
        send_cost = self._send_overhead
        departure = port.send_free
        if departure < now:
            departure = now
        processing = (
            self._base_processing
            + payload.verification_cost() * self._signature_verify_cost
        )
        envelope = Envelope(sender, payload, signature, now, size, processing)
        # Authenticated-link check, once per message at schedule time:
        # verification is time-independent (a token either matches the
        # signer's secret or it never will), so checking here instead of at
        # hand-over removes one call per delivery from the hot path and keeps
        # the invariant that a forged message never occupies a receiver's
        # CPU queue.  The minted-by-this-registry memo is checked inline;
        # only unknown signatures pay the ``verify`` call.
        forged = (
            signature is not None
            and signature.verified_by is not self.registry
            and not self.registry.verify(signature)
        )
        route_get = port.route.get
        lat_random = port.lat_random
        lat_overhead = self._lat_overhead
        transfer = size / self._lat_bandwidth if size else 0.0
        equeue = self._equeue
        heap = equeue._heap
        # Sequence numbers are counted locally and written back once: the
        # mailbox may schedule its flush event mid-loop, and that event keeps
        # the number it has always drawn (the flush is the only priority -1
        # event, so its number never orders it against anything).
        first = sequence = equeue._sequence
        sent = 0
        dropped = 0
        # The sender's latency total, folded one wire message at a time and
        # written back once (see :class:`NetworkStats` on why the order of
        # the adds is fixed).
        acc = port.lat_acc
        latency_total = acc[0]
        for destination in destinations:
            if destination == sender:
                # True 0 ms loop-back: no latency draw, no drop rules, no
                # verification, no kernel event.  Handling one's own message
                # still occupies the CPU (base cost only — a process does not
                # re-verify its own signatures), so the receive watermark
                # advances and subsequent wire hand-overs queue behind it;
                # without this, protocols with O(n^2) local phases would get
                # 1/n of their processing load for free.
                free = port.recv_free
                if free < now:
                    free = now
                port.recv_free = free + self._base_processing * port.cpu_factor
                port.loop_queue.append(envelope)
                self._micro.append((self._fire_loopback, port))
                continue
            sent += 1
            departure += send_cost
            if forged:
                dropped += 1
                continue
            if self.drop_rules and self._should_drop(sender, destination, payload):
                dropped += 1
                continue
            # Fused route memo: one dict lookup resolves the owner-cluster
            # routing verdict (target port, or ``None`` for the cross-cluster
            # mailbox) together with the pair's latency constants.  The slow
            # path lives in ``_resolve_route``; misses on unknown
            # destinations drop and are never cached.
            route = route_get(destination)
            if route is None:
                route = self._resolve_route(port, sender, destination)
                if route is None:
                    dropped += 1
                    continue
            target_port, base, spread, fused = route
            # The jitter draw comes from the sender's own stream.
            if base == 0:
                latency = transfer  # jitter(0, f) draws nothing and returns 0.0
            else:
                latency = base + ((spread + spread) * lat_random() - spread) + transfer
            if latency < lat_overhead:
                latency = lat_overhead
            latency = latency + lat_overhead
            if self.congestion is not None:
                # Load-dependent surcharge, added *after* the floor clamp: it
                # is >= 0, so the conservative lookahead bound still holds.
                latency += self.congestion.surcharge(
                    port.owner if port.owner is not None else sender, sender, destination, size, now
                )
            latency_total += latency
            arrival = departure + latency
            if target_port is None:
                self._enqueue_cross(port, sender, arrival, destination, envelope, fused, now)
                continue
            if fused:
                # Same-region link: the receiver's CPU slot is assigned now, so
                # the one kernel event fires at the finish time directly.
                finish = target_port.recv_free
                if finish < arrival:
                    finish = arrival
                finish += processing * target_port.cpu_factor
                target_port.recv_free = finish
                target_port.queue.append(envelope)
                event = Event((finish, 0, sequence, self._fire_port, target_port, False, "net:msg"))
            else:
                event = Event(
                    (arrival, 0, sequence, self._arrive, (target_port, envelope), False, "net:msg")
                )
            heappush(heap, event)
            sequence += 1
        stats.messages_sent += sent
        stats.bytes_sent += size * sent
        acc[0] = latency_total
        acc[1] += sent - dropped
        if dropped:
            stats.messages_dropped += dropped
        if sequence != first:
            equeue._sequence = sequence
            equeue._live += sequence - first
        port.send_free = departure

    def _should_drop(self, sender: str, destination: str, payload: Message) -> bool:
        return any(rule(sender, destination, payload) for rule in self.drop_rules)

    def _resolve_route(self, port: _Port, sender: str, destination: str):
        """Route-memo miss path: owner routing + pair constants, then cache.

        Messages between processes of different owner clusters always take
        the cross-cluster mailbox — even in-process — so
        delivery order never depends on how clusters are packed onto
        shards.  Processes without an owner (standalone networks, unit
        tests) never take the mailbox.  Returns ``None`` (and caches
        nothing) for unknown local destinations: the caller drops, and a
        later registration of that id must see a fresh lookup.
        """
        cross = port.owner is not None
        if cross:
            dest_owner = self.owners.get(destination)
            cross = dest_owner is not None and dest_owner != port.owner
        if cross:
            target_port = None
        else:
            target_port = self.ports.get(destination)
            if target_port is None:
                return None
        latency_model = self.latency_model
        # Trace-driven pair: sample the schedule at *send* time and do not
        # cache — every send to this destination must re-resolve so the
        # latency follows the trace.  Untraced pairs use the memoised
        # constants.
        params = None
        if latency_model._trace is not None:
            params = latency_model.traced_pair_params(sender, destination, self.simulator.now)
        traced = params is not None
        if not traced:
            params = latency_model.pair_params(sender, destination)
        base, spread = params
        route = (target_port, base, spread, base <= self._lat_intra)
        if not traced:
            port.route[destination] = route
        return route

    # ------------------------------------------------------------------ #
    # Cross-cluster mailbox (the conservative-parallel exchange surface)
    # ------------------------------------------------------------------ #
    def _enqueue_cross(
        self,
        port: _Port,
        sender: str,
        arrival: float,
        destination: str,
        envelope: Envelope,
        fused: bool,
        now: float,
    ) -> None:
        """Queue a cross-owner-cluster message for the next barrier.

        Everything sender-side — stats, drop rules, the signature check,
        the latency draw, the departure stagger, the link's same-region
        verdict — has already happened; what remains (receiver port lookup,
        CPU slot, delivery event) is receiver-side and runs at injection
        time on the *destination's* shard, identically under every shard
        layout.
        """
        xseq = port.xseq
        port.xseq = xseq + 1
        self.outbox.append((arrival, sender, xseq, destination, envelope, fused))
        if self.self_flush and not self._flush_pending:
            barrier = self.next_barrier(now) if self.next_barrier is not None else None
            if barrier is None:
                raise NetworkError(
                    "cross-cluster traffic requires a barrier grid: the deployment "
                    "must install `next_barrier` before cross-owner sends occur"
                )
            self._flush_pending = True
            self.simulator.schedule_at(barrier, self._flush_outbox, -1, "net:xflush")

    def _flush_outbox(self) -> None:
        """In-process barrier: drain the mailbox in canonical order.

        Fires at priority -1, i.e. *before* any ordinary event scheduled at
        the same barrier time — the exact position the forked workers
        inject at (between windows).  Every mailbox entry was produced by
        an event strictly before the barrier (the flush is the first thing
        to run at it), so draining everything matches the workers'
        take-all exchange.
        """
        self._flush_pending = False
        batch = self.outbox
        if not batch:
            return
        self.outbox = []
        batch.sort()
        deliver = self.deliver_cross
        for arrival, _sender, _xseq, destination, envelope, fused in batch:
            deliver(arrival, destination, envelope, fused)

    def take_outbox(self) -> List[tuple]:
        """Detach and return the pending mailbox (forked-worker mode)."""
        batch = self.outbox
        if batch:
            self.outbox = []
        return batch

    def deliver_cross(
        self, arrival: float, destination: str, envelope: Envelope, fused: bool
    ) -> None:
        """Inject a cross-cluster envelope at a barrier.

        Runs in the destination's process, in canonical mailbox order, so
        the outcome is identical whichever worker the sender lived in.  On a
        same-region link (``fused``) the receiver CPU slot is assigned here;
        on a cross-region link the barrier only schedules the arrival event,
        which takes the slot when the envelope lands.  The event is pushed
        directly (no past-time guard): a barrier can sit one ulp above an
        arrival that equals it in real arithmetic, and both the in-process
        flush and the forked workers tolerate that identically.
        """
        port = self.ports.get(destination)
        if port is None or not port.registered:
            self.stats.messages_dropped += 1
        elif fused:
            self._take_slot(port, envelope, arrival)
        else:
            queue = self._equeue
            sequence = queue._sequence
            queue._sequence = sequence + 1
            queue._live += 1
            heappush(
                queue._heap,
                Event(
                    (arrival, 0, sequence, self._arrive, (port, envelope), False, "net:msg")
                ),
            )

    def _arrive(self, pair) -> None:
        """A cross-region envelope lands: take the receiver's CPU slot *now*.

        The one deferred branch behind ``multicast`` and ``deliver_cross``.
        Until this instant the envelope occupied nothing at the receiver, so
        messages scheduled while it was on the wire were served ahead of it.
        """
        port, envelope = pair
        if port.registered:
            self._take_slot(port, envelope, self.simulator.now)
        else:
            self.stats.messages_dropped += 1

    def _take_slot(self, port: _Port, envelope: Envelope, arrival: float) -> None:
        """Book ``port``'s next CPU slot for an envelope arriving at ``arrival``.

        The slot is ``max(arrival, recv_free) + processing``; the envelope
        joins the port FIFO and its hand-over event is pushed.
        """
        finish = port.recv_free
        if finish < arrival:
            finish = arrival
        finish += envelope.processing * port.cpu_factor
        port.recv_free = finish
        port.queue.append(envelope)
        queue = self._equeue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        queue._live += 1
        heappush(
            queue._heap,
            Event((finish, 0, sequence, self._fire_port, port, False, "net:msg")),
        )

    # ------------------------------------------------------------------ #
    # Delivery (one callback per delivered message)
    # ------------------------------------------------------------------ #
    def _fire_port(self, port: _Port) -> None:
        """Hand over the head of a port's FIFO; fires at its hand-over time.

        Pop order equals kernel fire order because hand-over times are
        assigned monotonically per port, in the order the slots are taken
        (ties broken by the kernel's sequence numbers, which are assigned in
        the same order as the queue appends).
        """
        envelope = port.queue.popleft()
        process = port.process
        if process.crashed or not port.registered:
            self.stats.messages_dropped += 1
            return
        self.stats.messages_delivered += 1
        process.on_message(envelope.sender, envelope)

    def _fire_loopback(self, port: _Port) -> None:
        """0 ms hand-over of a self-addressed message (microtask).

        No verification: a process trusts its own signature.  The sender may
        have crashed between the send and this microtask (both happen at the
        same virtual instant), in which case the message drops like any
        delivery to a crashed process.
        """
        envelope = port.loop_queue.popleft()
        process = port.process
        if process.crashed or not port.registered:
            self.stats.messages_dropped += 1
            return
        self.stats.loopback_messages += 1
        process.on_message(envelope.sender, envelope)


__all__ = ["DropRule", "Network", "NetworkStats"]
