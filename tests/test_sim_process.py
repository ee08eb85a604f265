"""Tests for retriers and periodic processes."""

from __future__ import annotations

import pytest

from repro.errors import SchedulingError
from repro.sim import PeriodicProcess, Retrier
from repro.sim.process import retry_policy


def test_periodic_fixed_interval(sim):
    out = []
    proc = PeriodicProcess(sim, lambda: out.append(sim.now), lambda: 1.0)
    proc.start()
    sim.run(until=3.5)
    assert out == [1.0, 2.0, 3.0]


def test_periodic_initial_delay(sim):
    out = []
    proc = PeriodicProcess(sim, lambda: out.append(sim.now), lambda: 2.0)
    proc.start(initial_delay=0.5)
    sim.run(until=3.0)
    assert out == [0.5, 2.5]


def test_periodic_stop(sim):
    out = []
    proc = PeriodicProcess(sim, lambda: out.append(sim.now), lambda: 1.0)
    proc.start()
    sim.schedule(2.5, proc.stop)
    sim.run()
    assert out == [1.0, 2.0]


def test_periodic_stop_from_action(sim):
    out = []
    proc = PeriodicProcess(sim, lambda: (out.append(sim.now), proc.stop()),
                           lambda: 1.0)
    proc.start()
    sim.run()
    assert out == [1.0]


def test_periodic_double_start_rejected(sim):
    proc = PeriodicProcess(sim, lambda: None, lambda: 1.0)
    proc.start()
    with pytest.raises(SchedulingError):
        proc.start()


def test_periodic_variable_period(sim):
    periods = iter([1.0, 2.0, 4.0, 100.0])
    out = []
    proc = PeriodicProcess(sim, lambda: out.append(sim.now), lambda: next(periods))
    proc.start()
    sim.run(until=10.0)
    assert out == [1.0, 3.0, 7.0]


# -- Retrier -------------------------------------------------------------------


def _retrier(sim, policy, keep_going=True):
    """A retrier that logs (time, key, attempt, args) per firing."""
    fired = []

    def retry(key, attempt, *args):
        fired.append((sim.now, key, attempt, args))
        return keep_going

    return Retrier(sim, policy, retry, "test:retry"), fired


def test_retrier_backs_off_until_the_budget_is_spent(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0, 4.0, budget=4))
    retrier.arm("k", "frame")
    sim.run()
    # Waits 1, 2, 4, 4 (capped): four retries, then the budget is spent.
    assert fired == [(1.0, "k", 1, ("frame",)), (3.0, "k", 2, ("frame",)),
                     (7.0, "k", 3, ("frame",)), (11.0, "k", 4, ("frame",))]
    assert "k" not in retrier


def test_retrier_stops_when_the_owner_says_done(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0), keep_going=False)
    retrier.arm("k")
    sim.run()
    assert [t for t, *_ in fired] == [1.0]
    assert "k" not in retrier


def test_retrier_rearm_supersedes(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0, 8.0), keep_going=False)
    retrier.arm("k")
    retrier.arm("k", attempt=3)  # the owner's own attempt count
    sim.run()
    assert fired == [(4.0, "k", 3, ())]
    assert sim.events_executed == 1


def test_retrier_restart_keeps_the_attempt(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0, 8.0), keep_going=False)
    retrier.arm("k", attempt=2)   # due at 2.0
    sim.run(until=1.5)
    retrier.restart("k")          # same attempt, from now: due at 3.5
    retrier.restart("absent")     # a no-op
    sim.run()
    assert fired == [(3.5, "k", 2, ())]


def test_retrier_cancel_and_cancel_all(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0))
    for key in ("a", "b", "c"):
        retrier.arm(key)
    retrier.cancel("b")
    retrier.cancel("b")  # idempotent
    assert sorted(retrier) == ["a", "c"]
    retrier.cancel_all()
    assert list(retrier) == []
    sim.run()
    assert fired == []
    assert sim.peek_next_time() is None


def test_retrier_equal_deadlines_fire_in_arm_order(sim):
    retrier, fired = _retrier(sim, retry_policy(1.0), keep_going=False)
    for key in ("z", "a", "m"):
        retrier.arm(key)
    sim.run()
    assert [key for _, key, *_ in fired] == ["z", "a", "m"]


def test_retrier_label_names_the_whole_chain(sim):
    retrier, _ = _retrier(sim, retry_policy(1.0, budget=2))
    retrier.arm("k", label="other:retry")
    labels = []
    schedule = sim.schedule

    def spy(delay, callback, *args, label=""):
        labels.append(label)
        return schedule(delay, callback, *args, label=label)

    sim.schedule = spy
    sim.run()
    assert labels == ["other:retry"]


def test_retrier_off_arms_nothing(sim):
    retrier, fired = _retrier(sim, retry_policy(None))
    retrier.arm("k")
    assert "k" not in retrier
    sim.run()
    assert fired == [] and sim.events_executed == 0


def test_retry_policy_accepts_every_loop_value():
    # Off stays off; tiny bases below RetryPolicy's default min_timeout
    # and caps below the base still build valid jitter-free policies.
    assert retry_policy(None) is None
    assert retry_policy(0.0) is None and retry_policy(-1.0) is None
    tiny = retry_policy(0.004, 0.016, budget=6)
    assert [tiny.timeout_for(n, 0.0) for n in (1, 2, 3, 4)] == [
        0.004, 0.008, 0.016, 0.016]
    assert retry_policy(1.0, 0.5).timeout_for(1, 0.0) == 0.5
    assert retry_policy(5.0).timeout_for(10_000, 0.0) == 5.0
    assert retry_policy(1.0, 2.0) is retry_policy(1.0, 2.0)
