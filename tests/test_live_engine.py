"""The wall-clock engine honours the simulator's scheduling contract.

Protocol entities program against :class:`repro.engine.Engine`; these
tests pin that :class:`repro.live.engine.AsyncioEngine` is observably
interchangeable with :class:`repro.sim.Simulator` — same negative-delay
error, same cancellation semantics, same :class:`repro.sim.Retrier`
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
from repro.engine import Engine  # noqa: E402
from repro.errors import SchedulingError  # noqa: E402
from repro.instruments import Instruments  # noqa: E402
from repro.live.clock import LiveClock  # noqa: E402
from repro.live.engine import AsyncioEngine  # noqa: E402
from repro.sim import Event, Retrier, Simulator  # noqa: E402
from repro.sim.process import retry_policy  # noqa: E402
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
        assert isinstance(event, Event)
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
    assert event.cancelled


def test_cancel_after_firing_is_a_noop():
    fired = []

    def setup(engine):
        return engine.schedule(0.01, fired.append, 1, label="t")

    _, event = run_live(0.05, setup)
    assert fired == [1]
    event.cancel()
    assert not event.cancelled  # fired wins; cancel after the fact is moot


def test_now_advances_with_wall_time():
    def setup(engine):
        return engine.now

    engine, before = run_live(0.03, setup)
    assert engine.now >= before + 0.02


def test_sim_timer_runs_on_the_live_engine():
    """:class:`repro.sim.Retrier` (arm/cancel) must work unchanged — the
    MSS, proxy, MH and client retry loops all build on it."""
    fired = []

    def setup(engine):
        retrier = Retrier(engine, retry_policy(0.01, 0.02),
                          lambda key, attempt: fired.append((key, attempt)),
                          "t")
        retrier.arm("a")
        retrier.arm("a", attempt=2)  # re-arming supersedes the armed event
        retrier.arm("b")
        retrier.cancel("b")
        return retrier

    run_live(0.08, setup)
    assert fired == [("a", 2)]


# -- the asyncio driver -----------------------------------------------------


class FrozenClock(LiveClock):
    """A :class:`LiveClock` whose ``now()`` can be held still."""

    frozen = None

    def now(self):
        return self.frozen if self.frozen is not None else super().now()


def test_equal_deadlines_fire_in_schedule_order():
    """The sim kernel's ``(time, seq)`` tie-break holds on the wall clock:
    timers armed for one deadline fire in the order they were armed."""
    loop = asyncio.new_event_loop()
    try:
        clock = FrozenClock.start()
        engine = AsyncioEngine(loop, clock)
        clock.frozen = clock.now()
        loop.time = lambda: clock.epoch + clock.frozen
        fired = []
        for i in range(16):
            engine.schedule(0.01, fired.append, i, label="tie")
        del loop.time
        clock.frozen = None
        loop.run_until_complete(asyncio.sleep(0.05))
        assert fired == list(range(16))
    finally:
        loop.close()


def test_earlier_timer_fires_on_its_own_deadline():
    fired = []

    def setup(engine):
        engine.schedule(0.5, fired.append, "late", label="late")
        engine.schedule(0.01, fired.append, "early", label="early")

    run_live(0.1, setup)
    assert fired == ["early"]


def test_cancelling_the_armed_head_keeps_later_timers():
    fired = []

    def setup(engine):
        head = engine.schedule(0.01, fired.append, "head", label="head")
        engine.schedule(0.02, fired.append, "next", label="next")
        engine.schedule(0.03, fired.append, "last", label="last")
        head.cancel()

    run_live(0.08, setup)
    assert fired == ["next", "last"]


def test_raising_callback_is_reported_and_does_not_wedge_the_engine():
    loop = asyncio.new_event_loop()
    reported = []
    loop.set_exception_handler(lambda _loop, ctx: reported.append(
        ctx.get("exception")))
    try:
        clock = FrozenClock.start()
        engine = AsyncioEngine(loop, clock)
        fired = []

        def boom():
            raise RuntimeError("boom")

        clock.frozen = clock.now()  # boom and "same" share one deadline
        engine.schedule(0.01, boom, label="boom")
        engine.schedule(0.01, fired.append, "same", label="same")
        clock.frozen = None
        engine.schedule(0.03, fired.append, "later", label="later")
        loop.run_until_complete(asyncio.sleep(0.08))
        assert fired == ["same", "later"]
        assert [type(e) for e in reported] == [RuntimeError]
    finally:
        loop.close()


def test_engine_holds_at_most_one_asyncio_timer():
    """A thousand armed timers cost one ``TimerHandle``, not a thousand."""
    loop = asyncio.new_event_loop()
    live = set()
    peak = [0]
    call_at = loop.call_at

    class CountedHandle:
        """A ``TimerHandle`` that knows whether it is still pending."""

        _source_traceback = None

        def __init__(self, when, callback, args, kwargs):
            self._handle = call_at(when, self._run, callback, args, **kwargs)
            live.add(self)
            peak[0] = max(peak[0], len(live))

        def _run(self, callback, args):
            live.discard(self)
            callback(*args)

        def cancel(self):
            live.discard(self)
            self._handle.cancel()

    def counting_call_at(when, callback, *args, **kwargs):
        if getattr(callback, "__module__", None) != AsyncioEngine.__module__:
            return call_at(when, callback, *args, **kwargs)  # asyncio.sleep
        return CountedHandle(when, callback, args, kwargs)

    loop.call_at = counting_call_at
    try:
        engine = AsyncioEngine(loop, LiveClock.start())
        fired = []
        for i in range(1000):
            engine.schedule(0.001 * (1000 - i) % 0.05, fired.append, i)
        assert len(live) <= 1
        loop.run_until_complete(asyncio.sleep(0.1))
        assert len(fired) == 1000
        assert peak[0] <= 1
    finally:
        loop.close()


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
    assert rid in proxy._bounce_retry, "bounce did not arm a timer"
    record = proxy.requestlist[rid]
    proxy.handle_ack_forward(AckForwardMsg(
        mh=proxy.mh, proxy_id=proxy.proxy_id, request_id=rid,
        delivery_id=record.delivery_id, del_proxy=False))
    return proxy, host, rid


def test_ack_cancels_bounce_timer_under_the_simulator():
    sim = Simulator()
    proxy, host, rid = _bounce_then_ack(sim)
    assert rid not in proxy._bounce_retry
    assert sim.peek_next_time() is None, "the bounce timer is still armed"
    forwards_before = len(host.sent)
    sim.run(until=20.0)  # past the bounce policy's 8 s cap
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
        proxy, host, rid = _bounce_then_ack(engine)
        assert rid not in proxy._bounce_retry
        assert engine.kernel.peek_next_time() is None, (
            "the bounce timer would keep the event loop alive")
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
    assert rid in proxy._bounce_retry
    proxy.mark_migrated()
    assert not list(proxy._bounce_retry)
    assert sim.peek_next_time() is None
