"""Unit tests for the discrete-event kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.event_kernel import EventKernel, microseconds, milliseconds


class TestScheduling:
    def test_schedule_and_run_single_event(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(5.0, lambda k: fired.append(k.now))
        kernel.run()
        assert fired == [5.0]
        assert kernel.now == 5.0

    def test_schedule_after_uses_relative_delay(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(10.0, lambda k: k.schedule_after(
            2.5, lambda k2: fired.append(k2.now)))
        kernel.run()
        assert fired == [12.5]

    def test_schedule_in_past_raises(self):
        kernel = EventKernel()
        kernel.schedule(10.0, lambda k: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule(5.0, lambda k: None)

    def test_negative_delay_raises(self):
        kernel = EventKernel()
        with pytest.raises(ValueError):
            kernel.schedule_after(-1.0, lambda k: None)

    def test_events_run_in_time_order(self):
        kernel = EventKernel()
        order = []
        kernel.schedule(3.0, lambda k: order.append(3))
        kernel.schedule(1.0, lambda k: order.append(1))
        kernel.schedule(2.0, lambda k: order.append(2))
        kernel.run()
        assert order == [1, 2, 3]

    def test_priority_breaks_ties_at_equal_time(self):
        kernel = EventKernel()
        order = []
        kernel.schedule(1.0, lambda k: order.append("low"), priority=10)
        kernel.schedule(1.0, lambda k: order.append("high"), priority=1)
        kernel.run()
        assert order == ["high", "low"]

    def test_insertion_order_breaks_full_ties(self):
        kernel = EventKernel()
        order = []
        kernel.schedule(1.0, lambda k: order.append("first"), priority=5)
        kernel.schedule(1.0, lambda k: order.append("second"), priority=5)
        kernel.run()
        assert order == ["first", "second"]

    def test_kwargs_forwarded_to_callback(self):
        kernel = EventKernel()
        received = {}
        kernel.schedule(1.0, lambda k, value: received.update(value=value),
                        value=42)
        kernel.run()
        assert received["value"] == 42


class TestBatchedEvents:
    def test_schedule_batch_counts_logical_events(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule_batch(2.0, lambda k: fired.append(k.now), count=25)
        kernel.run()
        assert fired == [2.0]
        assert kernel.events_processed == 25

    def test_schedule_batch_rejects_empty_batches(self):
        kernel = EventKernel()
        with pytest.raises(ValueError):
            kernel.schedule_batch(1.0, lambda k: None, count=0)

    def test_batched_event_can_be_cancelled(self):
        kernel = EventKernel()
        fired = []
        event = kernel.schedule_batch(1.0, lambda k: fired.append(1),
                                      count=10)
        event.cancel()
        kernel.run()
        assert fired == []
        assert kernel.events_processed == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        kernel = EventKernel()
        fired = []
        event = kernel.schedule(1.0, lambda k: fired.append("no"))
        event.cancel()
        kernel.run()
        assert fired == []

    def test_cancelled_event_not_counted_as_processed(self):
        kernel = EventKernel()
        event = kernel.schedule(1.0, lambda k: None)
        event.cancel()
        kernel.schedule(2.0, lambda k: None)
        kernel.run()
        assert kernel.events_processed == 1


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        kernel = EventKernel()
        times = []
        kernel.schedule_periodic(10.0, lambda k: times.append(k.now))
        kernel.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_periodic_cancel_stops_chain(self):
        kernel = EventKernel()
        times = []
        controller = kernel.schedule_periodic(10.0, lambda k: times.append(k.now))
        kernel.run_until(25.0)
        controller.cancel()
        kernel.run_until(100.0)
        assert times == [10.0, 20.0]

    def test_periodic_firings_do_not_accumulate_rounding_error(self):
        # The k-th firing is at exactly first + k * period, whatever the
        # (non-representable) start — not a running sum of periods.
        kernel = EventKernel()
        times = []
        first = 1000.0 + 26.0 / 15.0
        controller = kernel.schedule_periodic(
            1000.0, lambda k: times.append(k.now), start=first)
        assert controller.time == first
        kernel.run_until(first + 199 * 1000.0)
        assert times == [first + k * 1000.0 for k in range(200)]

    def test_periodic_custom_start(self):
        kernel = EventKernel()
        times = []
        kernel.schedule_periodic(10.0, lambda k: times.append(k.now), start=5.0)
        kernel.run_until(26.0)
        assert times == [5.0, 15.0, 25.0]

    def test_non_positive_period_raises(self):
        kernel = EventKernel()
        with pytest.raises(ValueError):
            kernel.schedule_periodic(0.0, lambda k: None)


class TestRunControl:
    def test_run_until_advances_clock_even_when_idle(self):
        kernel = EventKernel()
        kernel.run_until(100.0)
        assert kernel.now == 100.0

    def test_run_until_does_not_execute_later_events(self):
        kernel = EventKernel()
        fired = []
        kernel.schedule(50.0, lambda k: fired.append("early"))
        kernel.schedule(150.0, lambda k: fired.append("late"))
        kernel.run_until(100.0)
        assert fired == ["early"]
        assert kernel.pending_events == 1

    def test_run_until_backwards_raises(self):
        kernel = EventKernel()
        kernel.run_until(10.0)
        with pytest.raises(ValueError):
            kernel.run_until(5.0)

    def test_run_max_events_limit(self):
        kernel = EventKernel()
        for i in range(10):
            kernel.schedule(float(i + 1), lambda k: None)
        executed = kernel.run(max_events=4)
        assert executed == 4
        assert kernel.pending_events == 6

    def test_run_until_stopped_by_max_events_keeps_clock_consistent(self):
        # Regression: run_until used to advance the clock to end_time even
        # when cut short by max_events, so the still-pending events then
        # executed with the clock moving backwards.
        kernel = EventKernel()
        times = []
        for i in range(5):
            kernel.schedule(float(i + 1), lambda k: times.append(k.now))
        executed = kernel.run_until(100.0, max_events=2)
        assert executed == 2
        assert kernel.now == 2.0
        kernel.run_until(100.0)
        assert times == sorted(times) == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert kernel.now == 100.0

    def test_run_until_max_events_leaves_future_events_schedulable(self):
        kernel = EventKernel()
        kernel.schedule(1.0, lambda k: None)
        kernel.schedule(2.0, lambda k: None)
        kernel.run_until(50.0, max_events=1)
        # The clock stayed at the last executed event, so scheduling before
        # the original end_time is still legal.
        kernel.schedule(10.0, lambda k: None)
        assert kernel.now == 1.0
        assert kernel.pending_events == 2

    def test_run_until_max_events_still_advances_when_only_later_events_remain(self):
        # max_events only cuts the run short if an executable event is
        # actually pending; otherwise the documented advance-to-end_time
        # behaviour applies.
        kernel = EventKernel()
        kernel.schedule(1.0, lambda k: None)
        kernel.schedule(200.0, lambda k: None)
        executed = kernel.run_until(100.0, max_events=1)
        assert executed == 1
        assert kernel.now == 100.0

    def test_step_returns_false_when_empty(self):
        kernel = EventKernel()
        assert kernel.step() is False

    def test_trace_records_labels(self):
        kernel = EventKernel()
        kernel.enable_trace()
        kernel.schedule(1.0, lambda k: None, label="alpha")
        kernel.schedule(2.0, lambda k: None, label="beta")
        kernel.run()
        assert kernel.trace == [(1.0, "alpha"), (2.0, "beta")]


class TestHelpers:
    def test_milliseconds_conversion(self):
        assert milliseconds(2.0) == 2000.0

    def test_microseconds_identity(self):
        assert microseconds(7) == 7.0


class TestProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_events_always_execute_in_nondecreasing_time_order(self, times):
        kernel = EventKernel()
        executed = []
        for t in times:
            kernel.schedule(t, lambda k: executed.append(k.now))
        kernel.run()
        assert executed == sorted(executed)
        assert len(executed) == len(times)

    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_periodic_fires_expected_number_of_times(self, count, period):
        kernel = EventKernel()
        ticks = []
        kernel.schedule_periodic(period, lambda k: ticks.append(k.now))
        kernel.run_until(period * count + period * 0.5)
        assert len(ticks) == count
