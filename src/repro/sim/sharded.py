"""Conservative-parallel coordination of per-cluster simulation shards.

The serial :class:`~repro.sim.simulator.Simulator` is one event loop over
one mutable world.  The sharded kernel splits that world by *owner cluster*:
each shard owns its clusters' replicas, clients, network ports, RNG streams,
and metrics, and runs its own serial kernel.  What couples shards is only
cross-cluster message traffic, and that traffic has a *latency floor*: the
delivery pipeline's minimum one-way latency between processes of different
clusters (``LatencyModel.min_cross_group_floor``).  That floor is the
classic conservative-PDES lookahead ``L``: an event at time ``t`` on one
shard can influence another shard no earlier than ``t + L``.

The coordinator therefore advances all shards window by window over the
barrier grid ``L, 2L, 3L, ...``:

1. run every shard up to (exclusive of) the next barrier ``h``;
2. gather each shard's cross-cluster mailbox, merge-sort the entries by
   ``(arrival, sender, xseq)`` — a total order every shard layout
   reproduces — and inject each envelope into its destination shard;
3. repeat until the horizon, then run the final window inclusively.

Determinism is the design driver, not an afterthought.  Messages between
different owner clusters take the mailbox *even under a single-shard
kernel* (where a priority -1 flush event at each barrier plays the role of
step 2), so the delivery schedule is a function of the cluster topology
only, never of how clusters are packed onto shards.  Fixed-seed runs are
byte-identical serial-vs-sharded — the parity tests in
``tests/test_sharded_parity.py`` pin exactly that.

Windows end *exclusive* of the barrier (``nextafter(h, -inf)``): events at
``h`` itself belong to the next window, after the exchange, matching the
single-shard flush's priority -1 position among same-time events.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


class ShardedSimulator:
    """Drives N per-cluster shards under conservative-lookahead barriers.

    Mirrors the :class:`Simulator` surface the harness drives (``now``,
    ``run_for``, ``stop``, ``events_processed``), so a deployment can treat
    either kernel uniformly.

    Args:
        simulators: One serial kernel per shard, in shard order.
        pipelines: The matching delivery pipelines (``take_outbox`` /
            ``deliver_cross`` ends of the cross-shard mailbox).
        route: Maps a destination process id to its shard index.
        lookahead_provider: Returns the conservative lookahead ``L`` in
            seconds, or ``None`` when no cross-cluster pair exists (then no
            barriers are needed and windows span the whole horizon).
            Resolved lazily at the first ``run_for`` because RTT overrides
            land after deployment construction.
    """

    def __init__(
        self,
        simulators: List[Simulator],
        pipelines: List[object],
        route: Callable[[str], int],
        lookahead_provider: Callable[[], Optional[float]],
        barrier_provider: Optional[Callable[[float], Optional[float]]] = None,
    ) -> None:
        self.now: float = 0.0
        self._simulators = simulators
        self._pipelines = pipelines
        self._route = route
        self._lookahead_provider = lookahead_provider
        #: Optional piecewise barrier schedule (trace-driven RTTs make the
        #: lookahead time-varying).  When set, it overrides the static grid;
        #: the single-shard flush installs the same provider so both kernels
        #: walk the identical barrier sequence.
        self._barrier_provider = barrier_provider
        self._lookahead: Optional[float] = None
        self._lookahead_resolved = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Simulator-shaped surface
    # ------------------------------------------------------------------ #
    @property
    def events_processed(self) -> int:
        """Total events executed across all shards."""
        return sum(sim.events_processed for sim in self._simulators)

    def stop(self) -> None:
        """Request that the window loop return after the current window."""
        self._stopped = True
        for sim in self._simulators:
            sim.stop()

    def run_for(self, duration: float) -> None:
        """Advance all shards ``duration`` units of virtual time."""
        self.run(until=self.now + duration)

    # ------------------------------------------------------------------ #
    # The window loop
    # ------------------------------------------------------------------ #
    def _resolve_lookahead(self) -> Optional[float]:
        if not self._lookahead_resolved:
            self._lookahead = self._lookahead_provider()
            self._lookahead_resolved = True
        return self._lookahead

    def _next_barrier(self, time: float, lookahead: float) -> float:
        """Smallest grid point ``k * L`` strictly after ``time``.

        The same integer-search arithmetic as the single-shard flush
        (``DeliveryPipeline._next_barrier``), so both kernels walk the
        identical float grid.
        """
        k = int(time / lookahead)
        while k * lookahead <= time:
            k += 1
        while k > 1 and (k - 1) * lookahead > time:
            k -= 1
        return k * lookahead

    def run(self, until: float) -> None:
        """Run every shard to ``until``, exchanging mailboxes at barriers."""
        self._stopped = False
        provider = self._barrier_provider
        lookahead = None if provider is not None else self._resolve_lookahead()
        simulators = self._simulators
        window_start = self.now
        while not self._stopped:
            if provider is not None:
                next_barrier = provider(self.now)
                barrier = until if next_barrier is None else min(next_barrier, until)
            elif lookahead is None:
                barrier = until
            else:
                barrier = self._next_barrier(self.now, lookahead)
                if barrier > until:
                    barrier = until
            # Exclusive window: events at the barrier itself run *after*
            # the exchange, in the next window.
            edge = math.nextafter(barrier, -math.inf)
            for sim in simulators:
                sim.run(until=edge)
            if any(sim._stopped for sim in simulators):
                self._stopped = True
                break
            self._exchange(window_start)
            self.now = barrier
            window_start = barrier
            if barrier >= until:
                break
        if self._stopped:
            self.now = max(self.now, max(sim.now for sim in simulators))
            return
        # Final inclusive pass: events at exactly ``until`` (the serial
        # kernel processes them) run now, after the last exchange.
        for sim in simulators:
            sim.run(until=until)
        self.now = until

    def _exchange(self, window_start: float) -> None:
        """Merge all shards' mailboxes and inject at the current barrier."""
        pipelines = self._pipelines
        batches = [pipeline.take_outbox() for pipeline in pipelines]
        total = sum(len(batch) for batch in batches)
        if not total:
            return
        if total == len(batches[0]):
            entries = batches[0]
        else:
            entries = [entry for batch in batches for entry in batch]
        # (arrival, sender, xseq) is a total order — identical to the
        # single-shard flush's sort — so injection order, and with it every
        # receiver CPU slot, is shard-count invariant.
        entries.sort()
        route = self._route
        for entry in entries:
            arrival = entry[0]
            if arrival < window_start:
                raise SimulationError(
                    f"conservative lookahead violated: cross-shard message from "
                    f"{entry[1]!r} arrives at {arrival}, before the window start "
                    f"{window_start} (lookahead too large for the topology)"
                )
            pipelines[route(entry[3])].deliver_cross(arrival, entry[3], entry[4], entry[5])


__all__ = ["ShardedSimulator"]
