"""Open-loop client populations: millions of simulated users per region.

The closed-loop :class:`~repro.workload.clients.WorkloadClient` models each
client thread as an object with one outstanding request — faithful to the
paper's evaluation setup, but it caps "heavy traffic" at thousands of
clients because state and events scale with the population.  A
:class:`ClientPopulation` inverts the model: one process per region stands
in for an arbitrary number of users by generating an *open-loop* Poisson
arrival stream at a constant aggregate rate.

The state is O(1) in the population size: arrivals are drawn per *batching
window* (one Poisson draw per tick, not one event per client), queued
arrivals are stored as ``(arrival_time, count)`` pairs (one per tick), and
only in-flight operations — bounded by the pipelining window — carry
per-operation records.  Requests cross the client–replica boundary as
:class:`~repro.core.messages.ClientBatchRequest` envelopes (one wire
message per window per target, regardless of how many operations it
carries) and responses return as per-round
:class:`~repro.core.messages.ClientBatchResponse` batches.

Open loop means arrivals do not wait for completions: when the system
cannot keep up, the backlog grows and *offered load* diverges from
*goodput* — exactly the signal closed-loop clients cannot produce.  The
pipelining window (:data:`MAX_OUTSTANDING`) only bounds memory: operations
beyond it wait in the backlog; their wait is reported as queueing delay and
is part of their latency, which runs from arrival, not from dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from repro.core.messages import ClientBatchRequest, ClientBatchResponse, ClientResponse
from repro.core.types import Transaction, make_transaction
from repro.errors import WorkloadError
from repro.net.links import AuthenticatedPerfectLink
from repro.net.message import Envelope
from repro.net.network import Network
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.workload.ycsb import YcsbWorkload


#: Client-side batching quantum in seconds.  Arrivals within one window
#: ship together as one batch envelope per target.
BATCH_WINDOW = 0.005
#: Pipelining window: operations in flight before new arrivals queue in the
#: backlog.  Bounds per-operation state.
MAX_OUTSTANDING = 20_000


@dataclass
class PopulationConfig:
    """Parameters of one open-loop client population (per region).

    Attributes:
        clients: Number of simulated users this population stands in for.
            A label only: it is copied into the result row's population
            statistics, and neither state nor operations depend on it.
        rate: Aggregate Poisson arrival rate (operations/second).
    """

    clients: int = 100_000
    rate: float = 2000.0

    def validate(self) -> None:
        """Raise :class:`WorkloadError` on out-of-range parameters."""
        if self.clients <= 0:
            raise WorkloadError("population clients must be positive")
        if self.rate < 0:
            raise WorkloadError("population rate must be non-negative")

    def copy(self) -> "PopulationConfig":
        """An independent copy."""
        return replace(self)


#: Named population presets.  ``steady`` is the defaults: 100k users at
#: 2000 operations per second.
POPULATION_PRESETS: Dict[str, Callable[[], PopulationConfig]] = {"steady": PopulationConfig}


def resolve_population_preset(name: str) -> PopulationConfig:
    """Look up a named population preset (case-insensitive)."""
    key = name.lower()
    if key not in POPULATION_PRESETS:
        raise WorkloadError(
            f"unknown population preset {name!r}; available: {sorted(POPULATION_PRESETS)}"
        )
    return POPULATION_PRESETS[key]()


class ClientPopulation(Process):
    """An aggregate open-loop client population bound to one cluster.

    One resident tick event fires every :data:`BATCH_WINDOW` seconds: it draws
    the window's arrival count (one Poisson draw per tick), folds the arrivals into the backlog, and
    dispatches as many operations as the pipelining window admits — reads
    as one batch to a rotating replica, writes as one batch to the cached
    cluster leader.  Kernel event volume is therefore O(ticks + responses),
    independent of both the population size and the arrival rate.

    Args:
        client_id: Process id of this population.
        simulator: Simulation kernel.
        network: Simulated network.
        workload: Operation generator (key/op mix; think of it as the
            per-user behaviour profile).
        target_replicas: Replicas of the cluster this population talks to.
        config: Population parameters (rate).
        metrics: Optional metrics sink (duck-typed ``record_transaction`` /
            ``record_offered``).
        retry_timeout: Seconds after which unanswered in-flight operations
            are re-sent and their target suspected.
    """

    def __init__(
        self,
        client_id: str,
        simulator: Simulator,
        network: Network,
        workload: YcsbWorkload,
        target_replicas: List[str],
        config: Optional[PopulationConfig] = None,
        metrics: Optional[Any] = None,
        retry_timeout: float = 60.0,
    ) -> None:
        super().__init__(client_id, simulator)
        self.config = config or PopulationConfig()
        self.config.validate()
        self._batch_window = BATCH_WINDOW
        self._max_outstanding = MAX_OUTSTANDING
        self.workload = workload
        self.target_replicas = list(target_replicas)
        self.metrics = metrics
        self.retry_timeout = retry_timeout
        self.apl: Optional[AuthenticatedPerfectLink] = None
        self._network = network
        #: Dedicated arrival stream: shares nothing with latency/workload
        #: draws, so adding a population cannot perturb other components.
        self._arrival_rng = simulator.rng.child(f"population/{client_id}")
        self._tick_label = f"{client_id}:tick"
        #: Backlog of arrived-but-not-dispatched operations, O(ticks):
        #: ``[arrival_time, remaining_count]`` — never one entry per op.
        self._backlog: Deque[List[float]] = deque()
        self._backlog_size = 0
        #: In-flight operations (bounded by :data:`MAX_OUTSTANDING`):
        #: txn_id -> (transaction, sent_at, target).
        self._inflight: Dict[str, Tuple[Transaction, float, str]] = {}
        self._read_cursor = 0
        self._suspected: set = set()
        #: Cached cluster leader from response ``leader_hint``s, invalidated
        #: on suspicion — writes route straight to it instead of re-learning
        #: the leader through a forward hop every window.
        self._leader_hint: str = ""
        # Aggregate statistics (exposed via ``stats()``).
        self.offered = 0
        self.dispatched = 0
        self.completed = 0
        self.completed_reads = 0
        self.completed_writes = 0
        self.retries = 0
        self.queue_delay_sum = 0.0
        self.queue_delay_count = 0
        self.max_inflight = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def on_start(self) -> None:
        """Arm the resident arrival tick and the retry sweep."""
        self.apl = AuthenticatedPerfectLink(self.process_id, self._network)
        self.simulator.schedule(self._batch_window, self._tick, label=self._tick_label)
        self.after(self.retry_timeout / 2.0, self._sweep_retries, label=f"{self.process_id}:sweep")

    # ------------------------------------------------------------------ #
    # Arrivals
    # ------------------------------------------------------------------ #
    def _poisson(self, mean: float) -> int:
        """One Poisson draw (Knuth for small means, normal approx above)."""
        if mean <= 0.0:
            return 0
        rng = self._arrival_rng
        if mean < 30.0:
            threshold = math.exp(-mean)
            count = 0
            product = rng.random()
            while product > threshold:
                count += 1
                product *= rng.random()
            return count
        value = rng.gauss(mean, math.sqrt(mean))
        return max(0, int(round(value)))

    def _window_arrivals(self) -> int:
        """Arrival count for the window that just elapsed."""
        return self._poisson(self.config.rate * self._batch_window)

    def _tick(self) -> None:
        if self.crashed or self.apl is None:
            return
        arrivals = self._window_arrivals()
        if arrivals:
            self.offered += arrivals
            if self.metrics is not None:
                self.metrics.record_offered(arrivals)
            self._backlog.append([self.now, arrivals])
            self._backlog_size += arrivals
        self._dispatch()
        self.simulator.schedule(self._batch_window, self._tick, label=self._tick_label)

    # ------------------------------------------------------------------ #
    # Dispatch (batching + pipelining)
    # ------------------------------------------------------------------ #
    def _write_target(self) -> str:
        hint = self._leader_hint
        if hint and hint not in self._suspected:
            return hint
        return self._next_read_target()

    def _next_read_target(self) -> str:
        targets = self.target_replicas
        for _ in range(len(targets)):
            target = targets[self._read_cursor % len(targets)]
            self._read_cursor += 1
            if target not in self._suspected:
                return target
        target = targets[self._read_cursor % len(targets)]
        self._read_cursor += 1
        return target

    def _dispatch(self) -> None:
        window = self._max_outstanding - len(self._inflight)
        if window <= 0 or not self._backlog_size:
            return
        count = min(window, self._backlog_size)
        reads: List[Transaction] = []
        writes: List[Transaction] = []
        now = self.now
        value_size = self.workload.value_size
        backlog = self._backlog
        taken = 0
        while taken < count:
            entry = backlog[0]
            take = min(count - taken, int(entry[1]))
            # Latency runs from arrival, not dispatch: a request that waited
            # behind the pipelining window reports the wait.
            arrived_at = entry[0]
            self.queue_delay_sum += (now - arrived_at) * take
            self.queue_delay_count += take
            entry[1] -= take
            if entry[1] <= 0:
                backlog.popleft()
            taken += take
            for _ in range(take):
                op, key, value = self.workload.next_operation()
                transaction = make_transaction(
                    client_id=self.process_id,
                    origin_replica="",  # filled per batch target below
                    op=op,
                    key=key,
                    value=value,
                    submitted_at=arrived_at,
                    size_bytes=value_size,
                )
                (reads if op == "read" else writes).append(transaction)
        self._backlog_size -= taken
        self.dispatched += taken
        if reads:
            self._send_batch(reads, self._next_read_target())
        if writes:
            self._send_batch(writes, self._write_target())
        if len(self._inflight) > self.max_inflight:
            self.max_inflight = len(self._inflight)

    def _send_batch(self, transactions: List[Transaction], target: str) -> None:
        now = self.now
        inflight = self._inflight
        for transaction in transactions:
            transaction.origin_replica = target
            inflight[transaction.txn_id] = (transaction, now, target)
        self.apl.send(target, ClientBatchRequest(transactions=tuple(transactions)))

    # ------------------------------------------------------------------ #
    # Responses
    # ------------------------------------------------------------------ #
    def on_message(self, sender: str, envelope: Envelope) -> None:
        payload = envelope.payload
        if isinstance(payload, ClientBatchResponse):
            if payload.departed:
                self._drop_target(sender)
                return
            if self._suspected:
                self._suspected.discard(sender)
            self._adopt_hint(payload.leader_hint)
            for txn_id, _value in payload.entries:
                self._complete(txn_id)
        elif isinstance(payload, ClientResponse):
            if self._suspected:
                self._suspected.discard(sender)
            self._adopt_hint(payload.leader_hint)
            self._complete(payload.txn_id)

    def _adopt_hint(self, hint: str) -> None:
        # Cache the responder's leader hint per population; a suspected
        # replica is only rehabilitated by answering us itself, so a stale
        # third-party hint cannot re-route writes to a leader we timed out
        # on (mirrors the closed-loop client's rule).
        if hint and hint not in self._suspected:
            self._leader_hint = hint

    def _drop_target(self, replica_id: str) -> None:
        """A replica left its cluster: stop sending to it, re-send what it held."""
        if replica_id in self.target_replicas and len(self.target_replicas) > 1:
            self.target_replicas.remove(replica_id)
        if self._leader_hint == replica_id:
            self._leader_hint = ""
        stranded = [record[0] for record in self._inflight.values() if record[2] == replica_id]
        if stranded:
            self._resend(stranded)

    def _complete(self, txn_id: str) -> None:
        record = self._inflight.pop(txn_id, None)
        if record is None:
            return
        transaction, _sent_at, _target = record
        self.completed += 1
        if transaction.is_read:
            self.completed_reads += 1
        else:
            self.completed_writes += 1
        if self.metrics is not None:
            self.metrics.record_transaction(
                txn_id=txn_id,
                op=transaction.op,
                latency=self.now - transaction.submitted_at,
                completed_at=self.now,
                client_id=self.process_id,
            )

    # ------------------------------------------------------------------ #
    # Retries
    # ------------------------------------------------------------------ #
    def _sweep_retries(self) -> None:
        """Re-send in-flight operations older than the retry timeout.

        One periodic sweep over the (bounded) in-flight table replaces a
        per-operation watchdog; lost writes during a leader change are the
        only expected customers.
        """
        if self.crashed or self.apl is None:
            return
        deadline = self.now - self.retry_timeout
        stale = [
            record for record in self._inflight.values() if record[1] <= deadline
        ]
        if stale:
            by_target: Dict[str, List[Transaction]] = {}
            for transaction, _sent_at, target in stale:
                by_target.setdefault(target, []).append(transaction)
            for target, transactions in sorted(by_target.items()):
                if target not in self._suspected:
                    self._suspected.add(target)
                    if target == self._leader_hint:
                        self._leader_hint = ""  # a silent leader hint is stale
                self._resend(transactions)
        self.after(self.retry_timeout / 2.0, self._sweep_retries, label=f"{self.process_id}:sweep")

    def _resend(self, transactions: List[Transaction]) -> None:
        """Re-send in-flight operations as one batch to the next healthy replica."""
        retry_target = self._next_read_target()
        now = self.now
        for transaction in transactions:
            self._inflight[transaction.txn_id] = (transaction, now, retry_target)
            self.retries += 1
        self.apl.send(retry_target, ClientBatchRequest(transactions=tuple(transactions)))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def queueing_delay_mean(self) -> float:
        """Mean seconds a dispatched operation waited in the backlog."""
        if not self.queue_delay_count:
            return 0.0
        return self.queue_delay_sum / self.queue_delay_count

    def stats(self) -> Dict[str, float]:
        """Aggregate open-loop statistics for result rows."""
        return {
            "clients": float(self.config.clients),
            "offered": float(self.offered),
            "dispatched": float(self.dispatched),
            "completed": float(self.completed),
            "backlog": float(self._backlog_size),
            "in_flight": float(len(self._inflight)),
            "max_in_flight": float(self.max_inflight),
            "retries": float(self.retries),
            "queueing_delay_mean": self.queueing_delay_mean(),
        }


__all__ = [
    "ClientPopulation",
    "POPULATION_PRESETS",
    "PopulationConfig",
    "resolve_population_preset",
]
