"""The discrete-event simulator driving every scenario.

The simulator owns the virtual clock and the event queue.  Components
schedule callbacks (message deliveries, timer expirations, client think
times); the simulator pops them in deterministic order and advances the
clock to each event's time.  Nothing in the library sleeps or reads the wall
clock, so a three-minute geo-replication experiment runs in seconds of real
time and is bit-for-bit reproducible.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import Callable, Optional, Sequence

from repro.errors import SimulationError
from repro.sim.events import ARG, CALLBACK, CANCELLED, TIME, Event, EventQueue
from repro.sim.rng import SeededRng


class Timer:
    """A restartable one-shot timer bound to a :class:`Simulator`.

    Protocol components use timers to watch leaders and remote clusters
    (``timer_j`` in the paper).  A timer can be started, stopped, and reset;
    the callback fires only if the timer is still pending at expiry.
    """

    __slots__ = ("_simulator", "duration", "callback", "name", "rate", "_label", "_event")

    def __init__(
        self,
        simulator: "Simulator",
        duration: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self._simulator = simulator
        self.duration = duration
        self.callback = callback
        self.name = name
        #: Local-clock rate of the timer's owner (clock-skew faults): a rate
        #: below 1.0 is a fast clock (the timer fires early), above 1.0 a
        #: slow one.  ``duration * 1.0`` is IEEE-exact, so unskewed runs are
        #: bit-identical to the pre-skew kernel.
        self.rate = 1.0
        self._label = f"timer:{name}"  # built once, not per (re)arm
        self._event: Optional[Event] = None

    def start(self, duration: Optional[float] = None) -> None:
        """Arm the timer.  Restarts it if it is already pending."""
        self.stop()
        if duration is not None:
            self.duration = duration
        self._event = self._simulator.schedule(
            self.duration * self.rate, self._fire, 0, self._label
        )

    def reset(self, duration: Optional[float] = None) -> None:
        """Alias for :meth:`start`; mirrors the paper's ``reset timer``."""
        self.start(duration)

    def stop(self) -> None:
        """Disarm the timer if pending."""
        if self._event is not None and not self._event.cancelled:
            self._event.cancel()
            self._simulator.notify_cancel()
        self._event = None

    def _fire(self) -> None:
        self._event = None
        self.callback()


class DeadlinePool:
    """Many logical timers sharing one resident kernel event.

    The lazy-deadline pattern the workload clients' retry watchdogs use,
    generalised: arming a timer is a dict write recording its deadline, and
    a single resident event chases the earliest recorded deadline.  When it
    fires, every key whose deadline has passed is popped and reported to
    ``callback(key)``; the event then re-chases the new minimum.  Disarming
    is a dict pop — the resident event discovers the change lazily.

    This replaces the schedule+cancel pair that per-instance protocol timers
    (consensus leader watchdogs, BRD delivery timers) paid every round —
    thousands of heap operations per simulated second for timers that
    almost never fire — with plain dict traffic.  The heap only sees one
    entry per pool plus the rare re-chase.

    Args:
        simulator: The owning simulation kernel.
        callback: ``(key) -> None`` invoked when a key's deadline passes.
            The callback may re-arm the same key or arm others.
        name: Label stem for the resident event.
    """

    __slots__ = ("_simulator", "_callback", "_label", "_deadlines", "_event", "rate")

    def __init__(self, simulator: "Simulator", callback: Callable, name: str = "") -> None:
        self._simulator = simulator
        self._callback = callback
        self._label = f"pool:{name}"
        self._deadlines: dict = {}
        self._event: Optional[Event] = None
        #: Local-clock rate of the pool's owner (clock-skew faults); see
        #: :attr:`Timer.rate`.  ``duration * 1.0`` is IEEE-exact.
        self.rate = 1.0

    def arm(self, key, duration: float) -> None:
        """(Re)arm ``key`` to fire ``duration`` from now (owner-clock units)."""
        duration = duration * self.rate
        deadline = self._simulator.now + duration
        self._deadlines[key] = deadline
        event = self._event
        if event is None or event.cancelled:
            self._event = self._simulator.schedule(duration, self._fire, 0, self._label)
        elif deadline < event.time:
            # Rare: the new deadline undercuts the resident event (a shorter
            # timeout armed mid-flight).  Re-chase eagerly so it fires on time.
            event.cancel()
            self._simulator.notify_cancel()
            self._event = self._simulator.schedule(duration, self._fire, 0, self._label)

    def arm_many(self, keys: Sequence, duration: float) -> None:
        """(Re)arm every key of ``keys`` to fire ``duration`` from now.

        Equal to :meth:`arm` on each key in turn, in one call: the keys
        share one deadline, so the dict takes them in the same order and
        only the first could schedule or re-chase the resident event.
        """
        if not keys:
            return
        duration = duration * self.rate
        deadline = self._simulator.now + duration
        deadlines = self._deadlines
        for key in keys:
            deadlines[key] = deadline
        event = self._event
        if event is None or event.cancelled:
            self._event = self._simulator.schedule(duration, self._fire, 0, self._label)
        elif deadline < event.time:
            event.cancel()
            self._simulator.notify_cancel()
            self._event = self._simulator.schedule(duration, self._fire, 0, self._label)

    def disarm(self, key) -> None:
        """Disarm ``key`` if armed (the resident event re-chases lazily)."""
        self._deadlines.pop(key, None)

    def disarm_all(self) -> None:
        """Disarm every key (the resident event finds nothing due)."""
        self._deadlines.clear()

    def timer(self, key, duration: float = 0.0) -> "PooledTimer":
        """A :class:`Timer`-shaped facade bound to one key of this pool."""
        return PooledTimer(self, key, duration)

    def _fire(self) -> None:
        self._event = None
        now = self._simulator.now
        deadlines = self._deadlines
        due = [key for key, deadline in deadlines.items() if deadline <= now]
        for key in due:
            # Re-check: an earlier callback may have re-armed or disarmed it.
            deadline = deadlines.get(key)
            if deadline is not None and deadline <= now:
                del deadlines[key]
                self._callback(key)
        if deadlines:
            head = min(deadlines.values())
            event = self._event
            if event is None or event.cancelled or event.time > head:
                if event is not None and not event.cancelled:
                    event.cancel()
                    self._simulator.notify_cancel()
                self._event = self._simulator.schedule(
                    max(0.0, head - now), self._fire, 0, self._label
                )


class PooledTimer:
    """One :class:`DeadlinePool` key wearing the :class:`Timer` interface.

    Lets components written against ``Timer`` (start/stop) share a
    pool without changing their call sites; the pool owner routes the pool's
    callback back to the component.
    """

    __slots__ = ("_pool", "_key", "duration")

    def __init__(self, pool: DeadlinePool, key, duration: float = 0.0) -> None:
        self._pool = pool
        self._key = key
        self.duration = duration

    def start(self, duration: Optional[float] = None) -> None:
        """Arm (or re-arm) the timer."""
        if duration is not None:
            self.duration = duration
        self._pool.arm(self._key, self.duration)

    def stop(self) -> None:
        """Disarm the timer."""
        self._pool.disarm(self._key)


class Simulator:
    """Deterministic discrete-event loop with a virtual clock.

    Args:
        seed: Root seed for all randomness derived from this simulator.

    Typical usage::

        sim = Simulator(seed=7)
        sim.schedule(1.5, lambda: print(sim.now))
        sim.run(until=10.0)
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = SeededRng(seed, "simulator")
        self._queue = EventQueue()
        #: Zero-delay callbacks (``(callback, arg)`` pairs) that run at the
        #: *current* virtual time, after the currently executing event and
        #: before the next heap event.  This is what makes a true 0 ms
        #: loop-back possible: a self-addressed message is handed over within
        #: the same virtual instant without consuming a kernel event, yet
        #: without re-entering the sender's call stack mid-send.  Drained
        #: FIFO, so chains of microtasks stay deterministic.
        self._microtasks: deque = deque()
        self._events_processed = 0
        self._running = False

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 0,
        label: str = "",
        arg: object = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` after the current time.

        ``arg`` (when not ``None``) is passed as the callback's single
        argument, so hot paths can schedule a bound method plus payload
        without allocating a per-event closure.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        # The push sequence, written out (see the NOTE in sim/events.py).
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = Event((self.now + delay, priority, sequence, callback, arg, False, label))
        queue._live += 1
        heappush(queue._heap, event)
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 0,
        label: str = "",
        arg: object = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time!r}, which is before the current time {self.now!r}"
            )
        # The push sequence, written out (see the NOTE in sim/events.py).
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        event = Event((time, priority, sequence, callback, arg, False, label))
        queue._live += 1
        heappush(queue._heap, event)
        return event

    def timer(self, duration: float, callback: Callable[[], None], name: str = "") -> Timer:
        """Create a (not yet started) :class:`Timer`."""
        return Timer(self, duration, callback, name=name)

    def deadline_pool(self, callback: Callable, name: str = "") -> DeadlinePool:
        """Create a :class:`DeadlinePool` bound to this simulator."""
        return DeadlinePool(self, callback, name=name)

    def notify_cancel(self) -> None:
        """Inform the queue that a previously scheduled event was cancelled."""
        self._queue.notify_cancel()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains or ``until`` is reached.

        Args:
            until: Stop once the clock would pass this virtual time.  The
                clock is advanced to ``until`` even if the queue drains early,
                so callers can reason about a fixed experiment duration.
            max_events: Safety valve for tests; trips as soon as an eligible
                event would exceed exactly this many executions, so no extra
                event ever runs past the limit.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        processed = 0
        queue = self._queue
        # The heap is walked directly: this loop runs once per simulated
        # event, so a method call and the Event property accessors would be
        # real overhead.
        # Compaction rewrites the heap in place, so the alias stays valid.
        heap = queue._heap
        pop = heappop
        micro = self._microtasks
        # Infinity sentinels keep the per-event loop free of None checks.
        limit = inf if until is None else until
        budget = inf if max_events is None else max_events
        try:
            while True:
                # Microtasks (0 ms loop-back deliveries) run at the current
                # time, before the next heap event — even one scheduled for
                # the same instant — and before the max_events valve, since
                # they belong to the event that spawned them.
                while micro:
                    callback, arg = micro.popleft()
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                if processed >= budget:
                    next_time = queue.peek_time()
                    if next_time is None or next_time > limit:
                        break
                    raise SimulationError(
                        f"exceeded max_events={max_events}; the scenario may be livelocked"
                    )
                event = None
                while heap:
                    head = heap[0]
                    if head[CANCELLED]:
                        pop(heap)
                        if queue._cancelled:
                            queue._cancelled -= 1
                        continue
                    if head[TIME] > limit:
                        break
                    event = pop(heap)
                    break
                if event is None:
                    break
                queue._live -= 1
                self.now = event[TIME]
                arg = event[ARG]
                if arg is None:
                    event[CALLBACK]()
                else:
                    event[CALLBACK](arg)
                processed += 1
            if until is not None and self.now < until:
                self.now = until
        finally:
            # The per-run counter is folded in once instead of per event
            # (nothing reads events_processed from inside a callback).
            self._events_processed += processed
            self._running = False

    def run_for(self, duration: float, max_events: Optional[int] = None) -> None:
        """Run for ``duration`` units of virtual time from the current clock."""
        self.run(until=self.now + duration, max_events=max_events)


__all__ = ["DeadlinePool", "PooledTimer", "Simulator", "Timer"]
