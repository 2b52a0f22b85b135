"""Tests for the discrete-event simulator and timers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.events import CANCELLED, LABEL
from repro.sim.simulator import Simulator


class TestEventOrdering:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule_at(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_preserve_insertion_order(self):
        sim = Simulator()
        fired = []
        for name in "abcde":
            sim.schedule(1.0, lambda n=name: fired.append(n))
        sim.run()
        assert fired == list("abcde")

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("keep"))
        drop = sim.schedule_at(0.5, lambda: fired.append("drop"))
        drop.cancel()
        sim.notify_cancel()
        sim.run()
        assert fired == ["keep"]
        assert sim.events_processed == 1

    def test_peek_time_skips_cancelled(self):
        sim = Simulator()
        first = sim.schedule(0.5, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim._queue.peek_time() == 2.0

    def test_peek_time_of_empty_queue_is_none(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None).cancel()
        assert sim._queue.peek_time() is None

    def test_lower_priority_fires_first_at_the_same_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, priority=2, arg="late")
        sim.schedule(1.0, fired.append, priority=1, arg="early")
        sim.schedule(0.5, fired.append, priority=9, arg="first")
        sim.run()
        assert fired == ["first", "early", "late"]

    def test_callback_may_cancel_a_same_time_event(self):
        sim = Simulator()
        fired = []
        victim = None

        def cancel_victim():
            fired.append("killer")
            victim.cancel()
            sim.notify_cancel()

        sim.schedule(1.0, cancel_victim)
        victim = sim.schedule(1.0, fired.append, arg="victim")
        sim.run()
        assert fired == ["killer"]
        assert len(sim._queue) == 0

    def test_compaction_keeps_every_live_event_in_order(self):
        sim = Simulator()
        fired = []
        for index in range(2000):
            event = sim.schedule(1.0 + index * 0.001, fired.append, arg=index)
            if index % 4:
                event.cancel()
                sim.notify_cancel()
        # Compaction ran: far fewer than the 1 500 dead entries remain buried.
        assert len(sim._queue._heap) < 1000
        assert len(sim._queue) == 500
        sim.run()
        assert fired == list(range(0, 2000, 4))


class TestSimulator:
    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [1.5]
        assert sim.now == 1.5

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append("early"))
        sim.schedule(5.0, lambda: seen.append("late"))
        sim.run(until=2.0)
        assert seen == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert seen == ["early", "late"]

    def test_run_for_is_relative(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_for(3.0)
        assert sim.now == 3.0
        sim.run_for(2.0)
        assert sim.now == 5.0

    def test_nested_scheduling(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(0.5, inner)

        def inner():
            order.append(("inner", sim.now))

        sim.schedule(1.0, outer)
        sim.run()
        assert order == [("outer", 1.0), ("inner", 1.5)]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(0.1, rearm)

        sim.schedule(0.1, rearm)
        with pytest.raises(SimulationError):
            sim.run(until=1000.0, max_events=50)

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        errors = []

        def nested():
            try:
                sim.run()
            except SimulationError as error:
                errors.append(error)

        sim.schedule(1.0, nested)
        sim.run()
        assert len(errors) == 1
        # The outer run still finishes and releases the kernel.
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == 2.0

    def test_run_until_advances_an_idle_clock(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0
        assert sim.events_processed == 0

    def test_event_exactly_at_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, arg="edge")
        sim.run(until=2.0)
        assert fired == ["edge"]

    def test_microtasks_run_before_same_time_heap_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim._microtasks.append((fired.append, "micro"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, fired.append, arg="second")
        sim.run()
        assert fired == ["first", "micro", "second"]
        # A microtask is not a kernel event.
        assert sim.events_processed == 2

    def test_max_events_ignores_events_past_until(self):
        sim = Simulator()
        for index in range(3):
            sim.schedule(1.0 + index, lambda: None)
        sim.schedule(50.0, lambda: None)
        sim.run(until=10.0, max_events=3)
        assert sim.events_processed == 3
        assert len(sim._queue) == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(i * 0.1, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestTimer:
    def test_timer_fires_after_duration(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.run()
        assert fired == [2.0]

    def test_timer_stop_prevents_firing(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(1.0, timer.stop)
        sim.run()
        assert fired == []

    def test_timer_restart_extends_deadline(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(2.0, lambda: fired.append(sim.now))
        timer.start()
        sim.schedule(1.5, timer.reset)
        sim.run()
        assert fired == [3.5]

    def test_start_with_a_duration_replaces_the_default(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(2.0, lambda: fired.append(sim.now))
        timer.start(0.5)
        sim.run()
        timer.start()
        sim.run()
        assert fired == [0.5, 1.0]
        assert timer.duration == 0.5

    def test_rate_scales_the_duration(self):
        sim = Simulator()
        fired = []
        fast = sim.timer(2.0, lambda: fired.append(("fast", sim.now)))
        slow = sim.timer(2.0, lambda: fired.append(("slow", sim.now)))
        fast.rate = 0.5
        slow.rate = 1.5
        fast.start()
        slow.start()
        sim.run()
        assert fired == [("fast", 1.0), ("slow", 3.0)]

    def test_restarts_leave_one_live_event(self):
        sim = Simulator()
        fired = []
        timer = sim.timer(1.0, lambda: fired.append(sim.now))
        for _ in range(10):
            timer.start()
        assert len(sim._queue) == 1
        sim.run()
        assert fired == [1.0]

    def test_stop_when_idle_is_harmless(self):
        sim = Simulator()
        timer = sim.timer(1.0, lambda: None)
        timer.stop()
        timer.start()
        sim.run()
        timer.stop()  # already fired
        assert len(sim._queue) == 0
        assert sim._queue._cancelled == 0

    def test_callback_may_rearm_its_timer(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start()

        timer = sim.timer(1.0, tick)
        timer.start()
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestDeadlinePoolClock:
    def test_rate_scales_every_deadline(self):
        sim = Simulator()
        fired = []
        pool = sim.deadline_pool(lambda key: fired.append((key, sim.now)))
        pool.rate = 0.5
        pool.arm("a", 2.0)
        pool.arm("b", 4.0)
        sim.run()
        assert fired == [("a", 1.0), ("b", 2.0)]

    def test_keys_due_together_fire_in_arm_order(self):
        sim = Simulator()
        fired = []
        pool = sim.deadline_pool(fired.append)
        for key in ("z", "a", "m"):
            pool.arm(key, 1.0)
        sim.run()
        assert fired == ["z", "a", "m"]
        assert sim.events_processed == 1

    def test_disarming_every_key_fires_nothing(self):
        sim = Simulator()
        fired = []
        pool = sim.deadline_pool(fired.append)
        pool.disarm("never-armed")
        pool.arm("a", 1.0)
        pool.arm("b", 2.0)
        pool.disarm("a")
        pool.disarm("b")
        sim.run()
        assert fired == []
        # The resident event fired once, found nothing due and did not re-chase.
        assert sim.events_processed == 1
        assert len(sim._queue) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.sampled_from((1.0, 0.5, 2.5)),
        earlier=st.lists(
            st.tuples(st.sampled_from("abcd"), st.sampled_from((0.5, 1.0, 2.0, 4.0))), max_size=4
        ),
        elapsed=st.sampled_from((0.0, 0.75, 3.0)),
        cancel_resident=st.booleans(),
        keys=st.lists(st.sampled_from("abcdef"), max_size=5),
        duration=st.sampled_from((0.0, 1.0, 2.0, 3.0)),
    )
    def test_arm_many_equals_arming_each_key_in_turn(
        self, rate, earlier, elapsed, cancel_resident, keys, duration
    ):
        """Same deadlines in the same dict order, the same resident event
        (scheduled, re-chased or left, whether the one before it is earlier,
        later, gone or cancelled) and the same firings afterwards."""

        def world(arm):
            sim = Simulator()
            fired = []
            pool = sim.deadline_pool(lambda key: fired.append((key, sim.now)))
            pool.rate = rate
            for key, before in earlier:
                pool.arm(key, before)
            sim.run(until=elapsed)
            if cancel_resident and pool._event is not None:
                pool._event.cancel()
                sim.notify_cancel()
            arm(pool)
            queue = sim._queue
            state = (
                list(pool._deadlines.items()),
                None if pool._event is None else pool._event[:3] + [pool._event[CANCELLED]],
                sorted(event[:3] + [event[CANCELLED], event[LABEL]] for event in queue._heap),
                (queue._sequence, queue._live, queue._cancelled),
            )
            sim.run()
            return state, fired

        def one_by_one(pool):
            for key in keys:
                pool.arm(key, duration)

        assert world(lambda pool: pool.arm_many(keys, duration)) == world(one_by_one)
