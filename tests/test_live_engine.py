"""The wall-clock engine honours the simulator's scheduling contract.

Protocol entities program against :class:`repro.engine.Engine`; these
tests pin that :class:`repro.live.engine.AsyncioEngine` is observably
interchangeable with :class:`repro.sim.Simulator` — same negative-delay
error, same cancellation semantics, same :class:`repro.sim.Timer`
behaviour — and regression-test the proxy redelivery-timer symmetry that
only *matters* under a wall-clock engine (an uncancelled timer there
fires for real after the proxy's state moved on).
"""

import asyncio
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.protocol import (  # noqa: E402
    AckForwardMsg,
    ResultBounceMsg,
    ServerResultMsg,
)
from repro.core.proxy import Proxy  # noqa: E402
from repro.engine import Engine, ScheduledEvent  # noqa: E402
from repro.errors import SchedulingError  # noqa: E402
from repro.instruments import Instruments  # noqa: E402
from repro.live.clock import LiveClock  # noqa: E402
from repro.live.engine import AsyncioEngine, LiveEvent  # noqa: E402
from repro.sim import Simulator, Timer  # noqa: E402
from repro.types import NodeId, ProxyId, RequestId  # noqa: E402


def run_live(coro_or_delay, setup):
    """Run *setup* against a fresh AsyncioEngine, then the loop for a bit."""
    loop = asyncio.new_event_loop()
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        out = setup(engine)
        loop.run_until_complete(asyncio.sleep(coro_or_delay))
        return engine, out
    finally:
        loop.close()


# -- engine contract --------------------------------------------------------


def test_satisfies_engine_protocols():
    loop = asyncio.new_event_loop()
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        assert isinstance(engine, Engine)
        event = engine.schedule(1.0, lambda: None, label="x")
        assert isinstance(event, ScheduledEvent)
        assert isinstance(event, LiveEvent)
        event.cancel()
    finally:
        loop.close()


def test_cluster_processes_draw_ids_from_disjoint_ranges():
    from repro.live.cluster import ClusterSpec, _Driver
    from repro.live.node import ID_NAMESPACE, ChildConfig, _ChildRuntime

    loop = asyncio.new_event_loop()
    try:
        clock = LiveClock.start()
        child = _ChildRuntime(ChildConfig(
            index=2, station="s1", cell="c1", epoch=clock.epoch, seed=1,
            addresses={}, driver_addr=("127.0.0.1", 9)), None, loop)
        driver = _Driver(ClusterSpec(), clock, loop, None, {})
        base = 2 * ID_NAMESPACE + 1
        for draw in ("message", "request", "proxy", "delivery"):
            assert getattr(child.engine.ids, draw)() == base
            assert getattr(driver.engine.ids, draw)() == 1
    finally:
        loop.close()


def test_negative_delay_raises_like_the_simulator():
    loop = asyncio.new_event_loop()
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        with pytest.raises(SchedulingError):
            engine.schedule(-0.1, lambda: None, label="past")
        with pytest.raises(SchedulingError):
            Simulator().schedule(-0.1, lambda: None, label="past")
    finally:
        loop.close()


def test_schedule_fires_with_args():
    fired = []
    _, _ = run_live(0.05, lambda e: e.schedule(
        0.01, lambda a, b: fired.append((a, b)), 1, 2, label="t"))
    assert fired == [(1, 2)]


def test_cancel_prevents_firing_and_is_idempotent():
    fired = []

    def setup(engine):
        event = engine.schedule(0.01, fired.append, 1, label="t")
        event.cancel()
        event.cancel()  # idempotent
        assert event.cancelled
        return event

    _, event = run_live(0.05, setup)
    assert fired == []
    assert event.cancelled and not event.fired


def test_cancel_after_firing_is_a_noop():
    def setup(engine):
        return engine.schedule(0.01, lambda: None, label="t")

    _, event = run_live(0.05, setup)
    assert event.fired
    event.cancel()
    assert not event.cancelled  # fired wins; cancel after the fact is moot


def test_now_advances_with_wall_time():
    def setup(engine):
        return engine.now

    engine, before = run_live(0.03, setup)
    assert engine.now >= before + 0.02


def test_sim_timer_runs_on_the_live_engine():
    """:class:`repro.sim.Timer` (restart/cancel) must work unchanged —
    the MSS, MH and client retry logic all build on it."""
    fired = []

    def setup(engine):
        timer = Timer(engine, lambda: fired.append("a"), label="t")
        timer.restart(0.01)
        timer.restart(0.02)  # restart supersedes the armed event
        cancelled = Timer(engine, lambda: fired.append("b"), label="t2")
        cancelled.restart(0.01)
        cancelled.cancel()
        return timer

    run_live(0.08, setup)
    assert fired == ["a"]


# -- proxy redelivery-timer symmetry (regression) ---------------------------


class FakeMssHost:
    """Minimal :class:`repro.core.proxy.ProxyHost`."""

    def __init__(self):
        self.node_id = NodeId("mss:s0")
        self.sent = []
        self.paged = []

    def proxy_wired_send(self, dst, message):
        self.sent.append((dst, message))

    def resolve_service(self, service):
        return NodeId("srv:app0")

    def remove_proxy(self, proxy_id):
        pass

    def proxy_page_mh(self, mh, reply_to):
        self.paged.append(mh)


def _bounce_then_ack(engine):
    """Result in custody -> bounce arms redelivery -> Ack lands."""
    host = FakeMssHost()
    proxy = Proxy(engine, host, NodeId("mh:h0"), ProxyId("px1"),
                  Instruments.disabled())
    rid = RequestId("h0-r1")
    proxy.admit_request(rid, "app", {"n": 1})
    proxy.handle_server_result(ServerResultMsg(
        request_id=rid, proxy_id=proxy.proxy_id, payload="ok"))
    proxy.handle_result_bounce(ResultBounceMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, request_id=rid))
    assert rid in proxy._bounce_timers, "bounce did not arm a timer"
    timer = proxy._bounce_timers[rid]
    record = proxy.requestlist[rid]
    proxy.handle_ack_forward(AckForwardMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, request_id=rid,
        delivery_id=record.delivery_id, del_proxy=False))
    return proxy, host, timer, rid


def test_ack_cancels_bounce_timer_under_the_simulator():
    sim = Simulator()
    proxy, host, timer, rid = _bounce_then_ack(sim)
    assert not proxy._bounce_timers
    assert rid not in proxy._bounce_retries
    assert timer.cancelled
    forwards_before = len(host.sent)
    sim.run(until=20.0)  # past _BOUNCE_RETRY_CAP
    assert len(host.sent) == forwards_before, (
        "a cancelled redelivery timer still fired")
    assert not host.paged


def test_ack_cancels_bounce_timer_under_the_live_engine():
    """The asymmetry this regression pins: under a wall-clock engine an
    unpopped timer actually fires after the Ack, re-forwarding a result
    the MH already delivered."""
    loop = asyncio.new_event_loop()
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        proxy, host, timer, rid = _bounce_then_ack(engine)
        assert not proxy._bounce_timers
        assert rid not in proxy._bounce_retries
        assert timer.cancelled
        forwards_before = len(host.sent)
        # Run the loop past the minimum bounce delay; a leaked timer
        # would fire here (delay for forward_count=1 is 1.0s, so give
        # the cancelled handle every chance at 1.2s).
        loop.run_until_complete(asyncio.sleep(1.2))
        assert len(host.sent) == forwards_before, (
            "a cancelled redelivery timer fired on the live engine")
        assert not host.paged
    finally:
        loop.close()


def test_proxy_delete_clears_bounce_timers():
    sim = Simulator()
    host = FakeMssHost()
    proxy = Proxy(sim, host, NodeId("mh:h0"), ProxyId("px2"),
                  Instruments.disabled())
    rid = RequestId("h0-r2")
    proxy.admit_request(rid, "app", None)
    proxy.handle_server_result(ServerResultMsg(
        request_id=rid, proxy_id=proxy.proxy_id, payload="ok"))
    proxy.handle_result_bounce(ResultBounceMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, request_id=rid))
    timer = proxy._bounce_timers[rid]
    proxy._cancel_ack_timers()
    assert timer.cancelled
    assert not proxy._bounce_timers and not proxy._bounce_retries
