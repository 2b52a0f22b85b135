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

from heapq import heapify, heappop
from typing import List, Optional

# Layout indexes of an Event (shared with the Simulator's run loop).
# NOTE: the push sequence (allocate Event, bump _sequence/_live, heappush)
# is written out at its five call sites — Simulator.schedule,
# Simulator.schedule_at, Network.multicast, Network._take_slot and
# Network.deliver_cross — so any change to this layout or to the
# live/cancelled accounting must be mirrored there.
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

    Slots of the list layout above:
        time: Virtual time at which the callback fires.
        priority: Lower values fire first among events at the same time.
        sequence: Insertion order tie-breaker assigned by the queue.
        callback: Callable invoked when the event fires.
        arg: Optional single argument passed to ``callback`` (``None`` means
            the callback takes none).  Lets hot paths schedule a bound method
            plus payload instead of allocating a fresh closure per event.
        cancelled: Set by :meth:`cancel`; cancelled events are skipped.
        label: Free-form debugging tag.

    Only ``time`` and ``cancelled`` have named accessors: the run loop and
    the network index the list directly.
    """

    __slots__ = ()

    @property
    def time(self) -> float:
        return self[TIME]

    @property
    def cancelled(self) -> bool:
        return self[CANCELLED]

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self[CANCELLED] = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self[CANCELLED] else ""
        label = f" {self[LABEL]!r}" if self[LABEL] else ""
        return f"<Event t={self[TIME]:.6f} p={self[PRIORITY]} #{self[SEQUENCE]}{label}{state}>"


class EventQueue:
    """The event heap and its live/cancelled accounting.

    The simulator and the network push onto ``_heap`` directly and the run
    loop pops from it (see the NOTE above); the queue itself only peeks and
    compacts.
    """

    __slots__ = ("_heap", "_sequence", "_live", "_cancelled")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0
        self._live = 0
        self._cancelled = 0  # cancellations reported via notify_cancel()

    def __len__(self) -> int:
        return self._live

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


__all__ = ["Event", "EventQueue"]
