"""Discrete-event engine: ordering, cancellation, FCFS servers."""

import pytest

from repro.errors import SimulationError
from repro.obs import Telemetry, use_telemetry
from repro.sim.engine import FcfsServer, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_break_by_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(1.0, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_run_until_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("early"))
        sim.schedule(10.0, lambda: log.append("late"))
        processed = sim.run(until=5.0)
        assert processed == 1
        assert log == ["early"]
        assert sim.pending == 1

    def test_cancellation(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(handle)
        sim.run()
        assert log == []

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def chain():
            log.append(sim.now)
            if len(log) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert log == [1.0, 2.0, 3.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_idle_run_advances_to_horizon(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_cancellation_mid_run(self):
        """A callback can cancel a later event while the run is draining."""
        sim = Simulator()
        log = []
        victim = sim.schedule(5.0, lambda: log.append("victim"))
        sim.schedule(1.0, lambda: sim.cancel(victim))
        sim.schedule(6.0, lambda: log.append("after"))
        processed = sim.run()
        assert log == ["after"]
        assert processed == 2  # cancelled events don't count as processed

    def test_cancelled_event_not_pending(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(handle)
        assert sim.pending == 1

    def test_equal_timestamp_ties_with_mid_run_scheduling(self):
        """Ties break by schedule order even when one arrives mid-run."""
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("first-scheduled"))

        def insert_tied():
            # Scheduled later, same timestamp: must fire after the one above.
            sim.schedule(1.0, lambda: log.append("late-scheduled"))

        sim.schedule(1.0, insert_tied)
        sim.run()
        assert log == ["first-scheduled", "late-scheduled"]

    def test_horizon_cutoff_is_exclusive_and_resumable(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("at"))
        sim.schedule(5.5, lambda: log.append("past"))
        # An event exactly at the horizon fires; later ones stay queued.
        assert sim.run(until=5.0) == 1
        assert log == ["at"]
        assert sim.now == 5.0
        assert sim.pending == 1
        # The same queue resumes where it stopped.
        assert sim.run() == 1
        assert log == ["at", "past"]
        assert sim.now == 5.5

    def test_telemetry_counts_engine_activity(self):
        tel = Telemetry()
        with use_telemetry(tel):
            sim = Simulator()
            handle = sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None)
            sim.cancel(handle)
            sim.run()
        counters = dict(tel.metrics.counters())
        assert counters["engine.events_scheduled"] == 2
        assert counters["engine.events_cancelled"] == 1
        assert counters["engine.events_processed"] == 1


class TestFeed:
    """The sorted arrival feed: n pre-scheduled events without the heap."""

    def test_fed_arrival_wins_a_tie_against_the_heap(self):
        sim = Simulator()
        log = []
        # Scheduled first, so on the heap alone it would fire first.
        sim.schedule(1.0, lambda: log.append("heap"))
        sim.feed([0.5, 1.0, 1.0, 2.0], lambda i: log.append(i))
        sim.schedule(2.0, lambda: log.append("late heap"))
        assert sim.pending == 6
        assert sim.run() == 6
        # Fed arrivals at equal times fire in index order, before the heap.
        assert log == [0, 1, 2, "heap", 3, "late heap"]
        assert sim.now == 2.0 and sim.pending == 0

    def test_fed_arrivals_can_schedule(self):
        sim = Simulator()
        log = []
        sim.feed(
            [1.0, 1.5],
            lambda i: sim.schedule(0.5, lambda: log.append((i, sim.now))),
        )
        sim.run()
        # Arrival 1 (fed at 1.5) fires before arrival 0's event at 1.5.
        assert log == [(0, 1.5), (1, 2.0)]

    def test_horizon_holds_back_the_feed_and_run_resumes(self):
        sim = Simulator()
        log = []
        sim.feed([1.0, 2.0, 3.0], log.append)
        assert sim.run(until=2.0) == 2
        assert log == [0, 1] and sim.now == 2.0 and sim.pending == 1
        assert sim.run() == 1
        assert log == [0, 1, 2]

    def test_stop_abandons_heap_and_feed(self):
        sim = Simulator()
        log = []
        sim.feed([1.0, 2.0, 3.0], log.append)
        sim.schedule(1.5, sim.stop)
        sim.schedule(2.5, lambda: log.append("never"))
        assert sim.run() == 2  # arrival 0 and the stopping event
        assert log == [0] and sim.now == 1.5 and sim.pending == 0

    def test_unsorted_and_overlapping_feeds_are_rejected(self):
        sim = Simulator()
        sim.feed([2.0, 1.0], lambda i: None)
        with pytest.raises(SimulationError):
            sim.feed([3.0], lambda i: None)  # the first has not drained
        with pytest.raises(SimulationError):
            sim.run()

    def test_fed_arrivals_count_as_engine_events(self):
        tel = Telemetry()
        with use_telemetry(tel):
            sim = Simulator()
            sim.feed([1.0, 2.0, 3.0], lambda i: None)
            sim.schedule(1.0, lambda: None)
            sim.run()
        counters = dict(tel.metrics.counters())
        assert counters["engine.events_scheduled"] == 4
        assert counters["engine.events_processed"] == 4


class TestFcfsServer:
    def test_sequential_service(self):
        sim = Simulator()
        server = FcfsServer(sim)
        done = []
        first = server.submit(2.0, lambda: done.append(sim.now))
        second = server.submit(3.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [2.0, 5.0] == [first, second]  # known at submission

    def test_busy_accounting_and_utilization(self):
        sim = Simulator()
        server = FcfsServer(sim)
        server.submit(2.0, lambda: None)
        sim.run()
        assert server.total_busy == 2.0
        assert server.requests == 1
        assert server.utilization(4.0) == pytest.approx(0.5)

    def test_submission_mid_simulation(self):
        sim = Simulator()
        server = FcfsServer(sim)
        done = []
        sim.schedule(5.0, lambda: server.submit(1.0, lambda: done.append(sim.now)))
        sim.run()
        assert done == [6.0]

    def test_negative_service_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FcfsServer(sim).submit(-1.0, lambda: None)

    def test_utilization_needs_positive_horizon(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            FcfsServer(sim).utilization(0.0)
