"""Event objects and the priority queue that orders them.

Events are ordered by ``(time, priority, sequence)``.  The sequence number is
assigned at insertion, so two events scheduled for the same instant run in the
order they were scheduled.  This total order is what keeps simulations
deterministic across runs and platforms.

Hot-path layout: an :class:`Event` *is* its own heap entry — a ``list``
subclass laid out as ``[time, priority, sequence, callback, arg, cancelled,
label]`` — so a push is a single allocation and every heap sift comparison is
a native element-wise list compare (it never gets past the unique ``sequence``
key, so callbacks are never compared).  This is the ``sched``-module trick,
with a list instead of a tuple because cancellation mutates the entry in
place.  Timer-heavy workloads cancel far more events than they fire (leader
watchdogs re-arm per message), so the queue counts cancellations reported via
:meth:`EventQueue.notify_cancel` and compacts the heap once dead entries
dominate, instead of letting them linger until their original deadline.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError

# Layout indexes of an Event (shared with the Simulator's run loop).
# NOTE: the raw push sequence (allocate Event, bump _sequence/_live,
# heappush) is intentionally inlined at the hottest call sites —
# Simulator.schedule/schedule_at and Network.multicast/_take_slot —
# so any change to this layout or to the live/cancelled accounting must
# be mirrored there.
TIME = 0
PRIORITY = 1
SEQUENCE = 2
CALLBACK = 3
ARG = 4
CANCELLED = 5
LABEL = 6

#: Compaction triggers once at least this many reported cancellations are
#: buried in the heap *and* they make up at least half of it.
_COMPACT_MIN_CANCELLED = 256


class Event(list):
    """A single scheduled callback; also its own heap entry.

    Attributes (all views over the list layout above):
        time: Virtual time at which the callback fires.
        priority: Lower values fire first among events at the same time.
        sequence: Insertion order tie-breaker assigned by the queue.
        callback: Callable invoked when the event fires.
        arg: Optional single argument passed to ``callback`` (``None`` means
            the callback takes none).  Lets hot paths schedule a bound method
            plus payload instead of allocating a fresh closure per event.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped.
        label: Free-form debugging tag.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[TIME]

    @property
    def priority(self) -> int:
        return self[PRIORITY]

    @property
    def sequence(self) -> int:
        return self[SEQUENCE]

    @property
    def callback(self) -> Callable[..., None]:
        return self[CALLBACK]

    @property
    def arg(self) -> Any:
        return self[ARG]

    @property
    def cancelled(self) -> bool:
        return self[CANCELLED]

    @property
    def label(self) -> str:
        return self[LABEL]

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self[CANCELLED] = True

    def fire(self) -> None:
        """Invoke the callback (with its bound argument, if any)."""
        arg = self[ARG]
        if arg is None:
            self[CALLBACK]()
        else:
            self[CALLBACK](arg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self[CANCELLED] else ""
        label = f" {self[LABEL]!r}" if self[LABEL] else ""
        return f"<Event t={self[TIME]:.6f} p={self[PRIORITY]} #{self[SEQUENCE]}{label}{state}>"


class EventQueue:
    """A stable priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_sequence", "_live", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0
        self._live = 0
        self._cancelled = 0  # cancellations reported via notify_cancel()

    def __len__(self) -> int:
        return self._live

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        priority: int = 0,
        label: str = "",
        arg: Any = None,
    ) -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time < 0:
            raise SimulationError(f"cannot schedule an event at negative time {time!r}")
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event((time, priority, sequence, callback, arg, False, label))
        self._live += 1
        heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)
            if event[CANCELLED]:
                if self._cancelled:
                    self._cancelled -= 1
                continue
            self._live -= 1
            return event
        return None

    def pop_due(self, limit: Optional[float]) -> Optional[Event]:
        """Pop the next live event firing at or before ``limit``.

        Returns ``None`` (leaving the event queued) when the next live event
        fires after ``limit``, or when the queue is empty.  ``limit=None``
        means no bound.  This is the run loop's primitive: one heap traversal
        where separate peek-then-pop calls would skip cancelled entries twice.
        """
        heap = self._heap
        while heap:
            event = heap[0]
            if event[CANCELLED]:
                heappop(heap)
                if self._cancelled:
                    self._cancelled -= 1
                continue
            if limit is not None and event[TIME] > limit:
                return None
            heappop(heap)
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Return the firing time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][CANCELLED]:
            heappop(heap)
            if self._cancelled:
                self._cancelled -= 1
        if not heap:
            return None
        return heap[0][TIME]

    def discard_cancelled(self) -> None:
        """Compact the heap by dropping cancelled entries (housekeeping).

        Compacts *in place* (slice assignment) so aliases to the heap list —
        the simulator's run loop holds one — survive compaction.
        """
        live = [event for event in self._heap if not event[CANCELLED]]
        heapify(live)
        self._heap[:] = live
        self._cancelled = 0

    def notify_cancel(self) -> None:
        """Record that one previously-pushed event was cancelled.

        Once reported cancellations both exceed a floor and make up half the
        heap, the heap is compacted so timer churn cannot grow it without
        bound.
        """
        self._live = max(0, self._live - 1)
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 >= len(self._heap)
        ):
            self.discard_cancelled()


def noop() -> None:
    """A do-nothing callback, useful as a placeholder in tests."""
    return None


__all__ = ["Event", "EventQueue", "noop"]
