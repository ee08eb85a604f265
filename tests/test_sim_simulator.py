"""Tests for the discrete-event kernel."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError, SimulationError
from repro.sim import Simulator


def test_events_fire_in_time_order(sim):
    out = []
    sim.schedule(2.0, out.append, "late")
    sim.schedule(1.0, out.append, "early")
    sim.schedule(3.0, out.append, "latest")
    sim.run()
    assert out == ["early", "late", "latest"]


def test_ties_break_by_scheduling_order(sim):
    out = []
    for i in range(5):
        sim.schedule(1.0, out.append, i)
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_clock_advances_to_fired_event_time(sim):
    sim.schedule(1.5, lambda: None)
    sim.run()
    assert sim.now == 1.5


def test_run_until_limits_and_advances_clock(sim):
    out = []
    sim.schedule(1.0, out.append, "a")
    sim.schedule(5.0, out.append, "b")
    sim.run(until=2.0)
    assert out == ["a"]
    assert sim.now == 2.0
    sim.run()
    assert out == ["a", "b"]


def test_event_cap_does_not_advance_clock_past_queued_events(sim):
    # Regression: run(until=T, max_events=N) used to jump the clock to T
    # even when the cap stopped the run with earlier events still queued,
    # so the next run() moved time backwards.
    times = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, times.append, t)
    sim.run(until=10.0, max_events=1)
    assert times == [1.0]
    assert sim.now == 1.0  # not 10.0: events at 2.0 and 3.0 are still due
    sim.run(until=10.0)
    assert times == [1.0, 2.0, 3.0]
    assert sim.now == 10.0


def test_event_cap_with_only_cancelled_events_left_advances(sim):
    sim.schedule(1.0, lambda: None)
    leftover = sim.schedule(2.0, lambda: None)
    leftover.cancel()
    sim.run(until=5.0, max_events=1)
    assert sim.now == 5.0  # nothing live remains at or before `until`


def test_cancelled_tombstones_are_compacted(sim):
    events = [sim.schedule(float(i + 1), lambda: None) for i in range(200)]
    for event in events[:150]:
        event.cancel()
    assert len(sim._queue) == 200
    sim.schedule(300.0, lambda: None)  # triggers the lazy compaction
    assert len(sim._queue) == 51
    sim.run()
    assert sim.events_executed == 51


def test_cancelling_a_fired_event_is_a_noop(sim):
    # A fired event has left the heap: cancelling it (as a retransmission
    # timer does from its own callback) must not count a tombstone.
    event = sim.schedule(1.0, lambda: None)
    sim.run()
    event.cancel()
    assert sim._cancelled_pending == 0
    assert not event.cancelled  # fired wins, as for the live engine


def test_an_event_cancelling_itself_while_firing_leaves_no_tombstone(sim):
    box = []
    box.append(sim.schedule(1.0, lambda: box[0].cancel()))
    sim.run()
    assert sim._cancelled_pending == 0


def test_cancel_counts_one_tombstone_per_queued_event(sim):
    payload = object()
    event = sim.schedule(1.0, lambda _: None, payload)
    event.cancel()
    event.cancel()
    assert sim._cancelled_pending == 1
    assert payload not in event.args  # the tombstone holds nothing alive
    sim.run()
    assert sim._cancelled_pending == 0


def test_compaction_during_run_keeps_order(sim):
    out = []

    def burst():
        events = [sim.schedule(50.0 + i, out.append, -1) for i in range(200)]
        for event in events:
            event.cancel()
        sim.schedule(5.0, out.append, "mid")  # compacts mid-run

    sim.schedule(1.0, burst)
    sim.schedule(10.0, out.append, "late")
    sim.run()
    assert out == ["mid", "late"]


def test_schedule_relative_from_within_event(sim):
    out = []

    def first():
        sim.schedule(1.0, lambda: out.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert out == [2.0]


def test_negative_delay_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected(sim):
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SchedulingError):
        sim.schedule_at(1.0, lambda: None)


def test_non_finite_time_rejected(sim):
    with pytest.raises(SchedulingError):
        sim.schedule_at(float("inf"), lambda: None)
    with pytest.raises(SchedulingError):
        sim.schedule_at(float("nan"), lambda: None)


def test_cancelled_events_do_not_fire(sim):
    out = []
    event = sim.schedule(1.0, out.append, "cancelled")
    sim.schedule(2.0, out.append, "kept")
    event.cancel()
    sim.run()
    assert out == ["kept"]


def test_stop_halts_processing(sim):
    out = []
    sim.schedule(1.0, sim.stop)
    sim.schedule(2.0, out.append, "never")
    sim.run()
    assert out == []
    assert sim.now == 1.0


def test_max_events_bound(sim):
    out = []
    for i in range(10):
        sim.schedule(float(i + 1), out.append, i)
    sim.run(max_events=3)
    assert out == [0, 1, 2]


def test_run_until_idle_raises_on_livelock(sim):
    def respawn():
        sim.schedule(1.0, respawn)

    sim.schedule(1.0, respawn)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_reentrant_run_rejected(sim):
    def inner():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, inner)
    sim.run()


def test_peek_next_time_skips_cancelled(sim):
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    e1.cancel()
    assert sim.peek_next_time() == 2.0


def test_events_executed_counter(sim):
    for i in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.events_executed == 4


def test_zero_delay_event_runs_at_same_time(sim):
    out = []

    def outer():
        sim.schedule(0.0, lambda: out.append(sim.now))

    sim.schedule(1.0, outer)
    sim.run()
    assert out == [1.0]
