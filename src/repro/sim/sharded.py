"""Conservative-parallel coordination of per-cluster simulation shards.

The serial :class:`~repro.sim.simulator.Simulator` is one event loop over
one mutable world.  The sharded kernel splits that world by *owner cluster*:
each shard owns its clusters' replicas, clients, network ports, RNG streams,
and metrics, and runs its own serial kernel.  What couples shards is only
cross-cluster message traffic, and that traffic has a *latency floor*: the
network's minimum one-way latency between processes of different clusters
(``LatencyModel.cross_group_floor_schedule``).  That floor is the classic
conservative-PDES lookahead ``L``: an event at time ``t`` on one shard can
influence another shard no earlier than ``t + L``.

The coordinator therefore advances all shards window by window over the
barrier grid ``L, 2L, 3L, ...`` (restarted at every floor change when an RTT
trace makes ``L`` piecewise) — one function, ``Deployment.next_barrier``,
which the single-shard flush and the forked workers walk too:

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
        networks: The matching networks (``take_outbox`` /
            ``deliver_cross`` ends of the cross-shard mailbox).
        route: Maps a destination process id to its shard index.
        next_barrier: ``time -> smallest barrier strictly after it``, or
            ``None`` when no cross-cluster pair exists (then no barriers are
            needed and windows span the whole horizon).  First called at the
            first ``run_for``, after RTT overrides have landed.
    """

    def __init__(
        self,
        simulators: List[Simulator],
        networks: List[object],
        route: Callable[[str], int],
        next_barrier: Callable[[float], Optional[float]],
    ) -> None:
        self.now: float = 0.0
        self._simulators = simulators
        self._networks = networks
        self._route = route
        self._next_barrier = next_barrier
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
    def run(self, until: float) -> None:
        """Run every shard to ``until``, exchanging mailboxes at barriers."""
        self._stopped = False
        simulators = self._simulators
        window_start = self.now
        while not self._stopped:
            barrier = self._next_barrier(self.now)
            if barrier is None or barrier > until:
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
        networks = self._networks
        batches = [network.take_outbox() for network in networks]
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
            networks[route(entry[3])].deliver_cross(arrival, entry[3], entry[4], entry[5])


__all__ = ["ShardedSimulator"]
