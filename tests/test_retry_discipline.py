"""The six protocol retry loops run on one Retrier over RetryPolicy.

Two pins keep the schedule where the hand-written loops left it:

* a fixed-seed fault scenario (wired loss, radio loss, one MSS crash)
  in which every loop's kernel label is scheduled, with its per-label
  (scheduled, cancelled) counts and its trace digest as measured before
  the loops shared a mechanism;
* every loop's policy, for attempts 1..2000, against the closed-form
  delay each loop computed by hand, compared bit for bit.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.core.proxy import Proxy
from repro.hosts.mobile_host import MobileHost
from repro.instruments import Instruments
from repro.sim.event import Event
from repro.sim.simulator import Simulator
from repro.stations import mss as mss_mod
from repro.verify.fuzz import FuzzConfig, generate_case, run_case

from tests.conftest import make_world

#: Per-label (scheduled, cancelled) of ``fuzz --fault-profile`` seed 15.
PINNED_COUNTS = {
    "client:retry": (24, 5),
    "mh:greet-retry": (30, 12),
    "mss:handoff-probe": (8, 0),
    "mss:wl-redeliver": (19, 15),
    "proxy:ack-timeout": (20, 17),
    "proxy:bounce-retry": (3, 1),
}
#: Its canonical trace.  Rows about a message have carried ``request_id``
#: since this was first pinned; without that field the trace still hashes
#: to the first pin, 781c5f17d94d35b9231e8eeb29ed36e6da3f5e818cb4bc1f3719c6cc298b0c88.
PINNED_DIGEST = (
    "06ed1eeba734e292fb520ba6f025b18bf8b0a300daf9828ab4dc7ecde3875b15")


def test_fault_scenario_schedule_is_pinned(monkeypatch):
    scheduled: Counter = Counter()
    cancelled: Counter = Counter()
    schedule_at, cancel = Simulator.schedule_at, Event.cancel

    def counting_schedule_at(self, time, callback, *args, label=""):
        scheduled[label] += 1
        return schedule_at(self, time, callback, *args, label=label)

    def counting_cancel(self):
        if self._sim is not None:  # a live event, not a fired one
            cancelled[self.label] += 1
        cancel(self)

    monkeypatch.setattr(Simulator, "schedule_at", counting_schedule_at)
    monkeypatch.setattr(Event, "cancel", counting_cancel)
    case = generate_case(15, FuzzConfig(fault_profile=True))
    assert case.profile.wired_loss > 0 and case.profile.wireless_loss > 0
    assert [op.op for op in case.ops].count("crash") == 1
    result = run_case(case, keep_trace=True)

    assert not result.violations
    assert result.requests_delivered == result.requests_issued == 5
    assert {label: (scheduled[label], cancelled[label])
            for label in PINNED_COUNTS} == PINNED_COUNTS
    digest = hashlib.sha256("\n".join(result.trace).encode()).hexdigest()
    assert digest == PINNED_DIGEST


# -- the closed forms the loops used to compute by hand ----------------------

ATTEMPTS = range(1, 2001)


class _Host:
    """The one attribute a proxy reads from its host at construction."""

    node_id = "mss:s0"


def _wireless(b, n):   # n = redeliveries so far
    return b if n == 0 else min(b * (2 ** n), 4 * b)


def _ack_timeout(a, fc):   # fc = forward_count after the forward
    return a * min(4, 2 ** max(0, fc - 1))


def _bounce(fc):
    return min(8.0, 0.5 * (2 ** min(fc, 6)))


def _greet(g, cap, r):   # r = retries of the current announcement
    if cap is None:
        return g
    return min(cap, g * (2 ** min(r, 16)))


@pytest.mark.parametrize("base", [3.0, 1.0, 0.004])
def test_wireless_redelivery_policy_matches_closed_form(base):
    world = make_world(wireless_ack_timeout=base)
    station = next(iter(world.stations.values()))
    policy = station._redelivery._policy
    assert policy.max_retries == mss_mod.WIRELESS_REDELIVERY_ATTEMPTS
    for attempt in ATTEMPTS:
        try:
            expected = _wireless(base, attempt - 1)
        except OverflowError:  # the budget kept the old loop far below
            expected = 4 * base
        assert policy.timeout_for(attempt, 0.0) == expected


def test_handoff_probe_policy_matches_closed_form():
    world = make_world()
    station = next(iter(world.stations.values()))
    policy = station._probe._policy
    interval = mss_mod.HANDOFF_PROBE_INTERVAL
    for attempt in ATTEMPTS:
        assert policy.timeout_for(attempt, 0.0) == interval


@pytest.mark.parametrize("ack_timeout", [5.0, 2.5, 2.0])
def test_proxy_ack_timeout_policy_matches_closed_form(ack_timeout):
    proxy = Proxy(Simulator(), _Host(), "mh:m", "px", Instruments.disabled(),
                  ack_timeout=ack_timeout)
    policy = proxy._ack_retry._policy
    for forward_count in ATTEMPTS:
        assert (policy.timeout_for(forward_count, 0.0)
                == _ack_timeout(ack_timeout, forward_count))


def test_proxy_bounce_policy_matches_closed_form():
    proxy = Proxy(Simulator(), _Host(), "mh:m", "px", Instruments.disabled())
    policy = proxy._bounce_retry._policy
    for attempt in ATTEMPTS:   # armed at attempt forward_count + 1
        assert policy.timeout_for(attempt, 0.0) == _bounce(attempt - 1)


@pytest.mark.parametrize("interval,cap", [(1.0, None), (1.0, 8.0),
                                          (0.5, 4.0), (1.0, 0.5)])
def test_registration_policy_matches_closed_form(interval, cap):
    world = make_world()
    host = MobileHost(world.sim, "m", world.wireless,
                      greet_retry_interval=interval, greet_backoff_cap=cap)
    policy = host._greet_retry._policy
    for attempt in ATTEMPTS:
        assert (policy.timeout_for(attempt, 0.0)
                == _greet(interval, cap, attempt - 1))


@pytest.mark.parametrize("interval", [5.0, 4.0, 0.5])
def test_client_retry_policy_matches_closed_form(interval):
    world = make_world()
    client = world.add_host("m", world.cells[0], retry_interval=interval)
    policy = client._retries._policy
    for attempt in ATTEMPTS:
        assert policy.timeout_for(attempt, 0.0) == interval
