"""The conservative window loop of a cluster-partitioned simulation.

A forked shard worker runs one serial :class:`~repro.sim.simulator.Simulator`
over the clusters it owns.  What couples workers is only cross-cluster
message traffic, and that traffic has a *latency floor*: the network's
minimum one-way latency between processes of different clusters
(``LatencyModel.cross_group_floor_schedule``).  That floor is the classic
conservative-PDES lookahead ``L``: an event at time ``t`` in one worker can
influence another no earlier than ``t + L``.

:func:`run_windows` therefore advances the kernel window by window over the
barrier grid ``L, 2L, 3L, ...`` (restarted at every floor change when an RTT
trace makes ``L`` piecewise) — one function, ``Deployment.next_barrier``,
which the in-process flush event walks too:

1. run the kernel up to (exclusive of) the next barrier ``h``;
2. ``exchange`` the cross-cluster mailbox with the other workers and inject
   what arrives, in ``(arrival, sender, xseq)`` order — a total order every
   worker layout reproduces;
3. repeat until the horizon, then run the final window inclusively.

Windows end *exclusive* of the barrier (``nextafter(h, -inf)``): events at
``h`` itself belong to the next window, after the exchange, matching the
in-process flush's priority -1 position among same-time events.  That is
what makes forked runs byte-identical to the serial run of the same spec.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from repro.sim.simulator import Simulator


def run_windows(
    simulator: Simulator,
    next_barrier: Callable[[float], Optional[float]],
    until: float,
    exchange: Callable[[float], None],
) -> None:
    """Run ``simulator`` to ``until``, calling ``exchange(window_start)`` at every barrier.

    ``next_barrier`` maps a time to the smallest barrier strictly after it,
    or ``None`` when no cross-cluster pair exists (one window then spans the
    whole horizon).
    """
    now = simulator.now
    while True:
        barrier = next_barrier(now)
        if barrier is None or barrier > until:
            barrier = until
        simulator.run(until=math.nextafter(barrier, -math.inf))
        exchange(now)
        now = barrier
        if barrier >= until:
            break
    # Final inclusive pass: events at exactly ``until`` (the serial kernel
    # processes them) run now, after the last exchange.
    simulator.run(until=until)


__all__ = ["run_windows"]
