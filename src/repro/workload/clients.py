"""Client processes: the closed-loop workload client.

The paper deploys one client per cluster with multiple threads, each issuing
its next request as soon as the previous one returns (closed loop, no think
time).  :class:`WorkloadClient` models exactly that: ``threads`` independent
logical threads, each with one outstanding transaction, retransmitting after
``retry_timeout`` if a response never arrives (e.g. the transaction was lost
in a leader change).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.messages import ClientRequest, ClientResponse
from repro.core.types import READ, Transaction, make_transaction
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.workload.ycsb import YcsbWorkload


@dataclass
class _Thread:
    """One logical closed-loop client thread."""

    index: int
    outstanding_txn: Optional[Transaction] = None
    submitted_at: float = 0.0
    completed: int = 0
    #: Replica the outstanding request was last sent to (original target or
    #: the latest retry target) — the one a non-answer incriminates.
    awaiting: Optional[str] = None
    #: The resident retry watchdog event.  One event per thread, re-armed
    #: lazily: arming just records the deadline (deadlines only move
    #: forward, so the pending event can never be too late), and the event
    #: re-schedules itself to the current deadline when it fires early.
    #: This replaces one schedule+cancel pair per completed operation with
    #: one field write, while keeping retry times exact.
    retry_event: Optional[object] = None
    retry_deadline: Optional[float] = None
    retry_txn: Optional[Transaction] = None


class WorkloadClient(Process):
    """A closed-loop YCSB client bound to the replicas of one cluster.

    Args:
        client_id: Process id of this client.
        simulator: Simulation kernel.
        network: Simulated network.
        workload: Operation generator.
        target_replicas: Replicas of the cluster this client talks to;
            requests are spread across them round-robin.
        threads: Number of concurrent logical threads (outstanding requests).
        metrics: Optional metrics sink (duck-typed ``record_transaction``).
        retry_timeout: Seconds after which an unanswered request is resent.
    """

    def __init__(
        self,
        client_id: str,
        simulator: Simulator,
        network: Network,
        workload: YcsbWorkload,
        target_replicas: List[str],
        threads: int = 16,
        metrics: Optional[Any] = None,
        retry_timeout: float = 60.0,
    ) -> None:
        super().__init__(client_id, simulator)
        self.workload = workload
        self.target_replicas = list(target_replicas)
        self.threads = [_Thread(index=i) for i in range(threads)]
        self.metrics = metrics
        self.retry_timeout = retry_timeout
        self.apl: Optional[AuthenticatedPerfectLink] = None
        self._network = network
        self._retry_label = f"{client_id}:retry"
        self._by_txn: Dict[str, _Thread] = {}
        self._target_index = 0
        #: Replicas that timed out recently; skipped while alternatives exist
        #: (real YCSB clients likewise stop talking to unresponsive servers).
        self._suspected: set = set()
        #: The cluster leader as last reported by a response's
        #: ``leader_hint``.  Writes are routed straight to it (standard BFT
        #: client behaviour — the primary orders them anyway, so the
        #: round-robin detour just adds a forward hop); reads stay
        #: round-robin so local reads keep load-balancing across replicas.
        self._leader_hint: str = ""
        self.completed_reads = 0
        self.completed_writes = 0

    def on_start(self) -> None:
        """Kick off every thread's first request."""
        self.apl = AuthenticatedPerfectLink(self.process_id, self._network)
        for thread in self.threads:
            self.after(0.0, lambda t=thread: self._submit_next(t))

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def _next_target(self) -> str:
        """Round-robin over the targets, skipping suspects while any is left."""
        targets = self.target_replicas
        for _ in range(len(targets)):
            target = targets[self._target_index % len(targets)]
            self._target_index += 1
            if target not in self._suspected:
                return target
        # Every replica is suspected; fall back to plain round-robin.
        target = targets[self._target_index % len(targets)]
        self._target_index += 1
        return target

    def _submit_next(self, thread: _Thread, resend: Optional[Transaction] = None) -> None:
        """Send ``thread``'s next transaction, or ``resend`` its unanswered one.

        The closed loop's hot path, once per operation: the healthy-path
        routing is written out (``_next_target`` serves the suspect path),
        the transaction and the request are built positionally, and the
        clock is read once.  A resend goes through the same tail, so the
        watchdog is armed in this one place.
        """
        if self.crashed or self.apl is None:
            return
        simulator = self.simulator
        now = simulator.now
        if resend is None:
            op, key, value = self.workload.next_operation()
            suspected = self._suspected
            hint = self._leader_hint
            if op != READ and hint and hint not in suspected:
                target = hint
            elif suspected:
                target = self._next_target()
            else:
                targets = self.target_replicas
                index = self._target_index
                target = targets[index % len(targets)]
                self._target_index = index + 1
            transaction = make_transaction(
                self.process_id, target, op, key, value, now, self.workload.value_size
            )
            thread.outstanding_txn = transaction
            thread.submitted_at = now
            self._by_txn[transaction.txn_id] = thread
        else:
            transaction = resend
            target = self._next_target()
        thread.awaiting = target
        self.apl.send(target, ClientRequest(transaction))
        # Arm the resident watchdog: record the deadline, schedule at most once.
        thread.retry_txn = transaction
        deadline = thread.retry_deadline = now + self.retry_timeout
        if thread.retry_event is None:
            thread.retry_event = simulator.schedule_at(
                deadline, self._on_retry_check, 0, self._retry_label, thread
            )

    def _on_retry_check(self, thread: _Thread) -> None:
        thread.retry_event = None
        if self.crashed:
            return
        deadline = thread.retry_deadline
        if deadline is None:
            return  # answered; the next submission re-creates the event
        if self.now < deadline:
            # Re-armed since this event was scheduled; chase the deadline.
            thread.retry_event = self.simulator.schedule_at(
                deadline, self._on_retry_check, 0, self._retry_label, thread
            )
            return
        transaction = thread.retry_txn
        thread.retry_deadline = None
        thread.retry_txn = None
        self._maybe_retry(thread, transaction)

    def _maybe_retry(self, thread: _Thread, transaction: Transaction) -> None:
        if self.apl is None:
            return
        if thread.outstanding_txn is None or thread.outstanding_txn.txn_id != transaction.txn_id:
            return
        # The request is still unanswered after the retry timeout; suspect
        # whichever replica it was last sent to and re-route.
        suspect = thread.awaiting or transaction.origin_replica
        if suspect and suspect not in self._suspected:
            self._suspect(suspect)  # re-routes this thread along with its peers
        else:
            self._submit_next(thread, transaction)

    def _suspect(self, replica_id: str) -> None:
        """Mark a replica unresponsive and re-route everything waiting on it.

        Without the immediate re-route, each thread waiting on the same dead
        replica serves out its *own* full retry timeout — and when several
        adjacent round-robin targets die together (a leave burst), retries
        hop from one dead target to the next, serialising whole multiples of
        the timeout into the outage.
        """
        if replica_id in self._suspected:
            return
        self._suspected.add(replica_id)
        if replica_id == self._leader_hint:
            self._leader_hint = ""  # a silent leader hint is stale
        for thread in self.threads:
            transaction = thread.outstanding_txn
            if transaction is not None and thread.awaiting == replica_id:
                self._submit_next(thread, transaction)

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> None:
        payload = envelope.payload
        if payload.__class__ is not ClientResponse:
            return
        txn_id = payload.txn_id
        thread = self._by_txn.pop(txn_id, None)
        if thread is None:
            return
        transaction = thread.outstanding_txn
        if transaction is None or transaction.txn_id != txn_id:
            return
        if self._suspected:
            self._suspected.discard(sender)  # a responding replica is not dead
        hint = payload.leader_hint
        if hint and hint not in self._suspected:
            # A suspected replica is only rehabilitated by answering us
            # itself (the discard above) — a third party's stale hint must
            # not send writes back to a leader we just timed out on.  The
            # hint may name a replica outside the client's initial target
            # set (a joiner that won leadership): caching it is exactly the
            # point — writes route straight to the new leader instead of
            # paying a forward hop forever.
            self._leader_hint = hint
        now = self.simulator.now
        latency = now - thread.submitted_at
        thread.outstanding_txn = None
        thread.completed += 1
        # Disarm the watchdog: the resident event stays queued (it re-arms
        # or dies when it fires); disarming is just clearing the deadline.
        thread.retry_deadline = None
        thread.retry_txn = None
        op = transaction.op
        if op == READ:
            self.completed_reads += 1
        else:
            self.completed_writes += 1
        if self.metrics is not None:
            self.metrics.record_transaction(txn_id, op, latency, now, self.process_id)
        self._submit_next(thread)


__all__ = ["WorkloadClient"]
