"""Unit tests for the pref, the station's pref table (the per-MH
entries) and the prioritized inbox."""

from __future__ import annotations

import pytest

from repro.core.protocol import AckMsg, DeregMsg, LeaveMsg, RequestMsg
from repro.sim import Simulator
from repro.stations.inbox import (
    PRIORITY_ACK,
    PRIORITY_HANDOFF,
    PRIORITY_NORMAL,
    Inbox,
    default_priority,
)
from repro.stations.pref import Pref
from repro.types import NodeId, ProxyId, ProxyRef, RequestId
from tests.test_mss_handoff_table import MH, Station


def _ack(n: int = 1) -> AckMsg:
    return AckMsg(mh=NodeId("mh:m"), request_id=RequestId(f"r{n}"), delivery_id=n)


def _dereg() -> DeregMsg:
    return DeregMsg(mh=NodeId("mh:m"), seq=1)


def _request() -> RequestMsg:
    return RequestMsg(mh=NodeId("mh:m"), request_id=RequestId("r"), service="s")


# -- pref table -----------------------------------------------------------------

def test_pref_defaults():
    pref = Pref()
    assert pref.ref is None
    assert not pref.rkpr
    assert pref.ref is None
    assert pref.outstanding == set()


def test_pref_clear_proxy_resets_everything():
    ref = ProxyRef(mss=NodeId("mss:a"), proxy_id=ProxyId("px"))
    pref = Pref(ref=ref, rkpr=True)
    pref.outstanding.add(RequestId("r"))
    pref.clear_proxy()
    assert pref.ref is None and not pref.rkpr and not pref.outstanding


def test_pref_table_ensure_idempotent():
    """Registering again keeps the MH's one entry and its pref."""
    s = Station()
    s.join(1)
    pref = s.s0.pref_of(MH)
    s.join(2)
    assert s.s0.pref_of(MH) is pref
    assert list(s.s0.entries) == [MH]


def test_pref_table_pop_returns_empty_for_missing():
    """A leave from an MH the station never registered finds no pref:
    nothing pending is counted and no entry is created."""
    s = Station()
    s.deliver(LeaveMsg(mh=MH))
    assert s.s0.pref_of(MH) is None and s.s0.entries == {}
    assert s.world.metrics.count("mh_left_with_pending") == 0
    assert s.world.metrics.count("mh_leaves") == 1


def test_pref_table_install_resets_outstanding():
    """A pref received through hand-off replaces the old one and starts
    with nothing outstanding."""
    s = Station()
    s.join(1)
    old = s.s0.pref_of(MH)
    old.outstanding.add(RequestId("r"))
    s.dereg("s1", 2)                       # handed off: no pref here
    s.greet("s1", 3)
    s.deregack("s1", 3, True, "px", rkpr=True)
    fresh = s.s0.pref_of(MH)
    assert fresh is not old
    assert fresh.ref == s.ref("px") and fresh.rkpr
    assert fresh.outstanding == set()


# -- inbox ----------------------------------------------------------------------

def test_default_priority_classes():
    assert default_priority(_ack()) == PRIORITY_ACK
    assert default_priority(_dereg()) == PRIORITY_HANDOFF
    assert default_priority(_request()) == PRIORITY_NORMAL


def test_zero_delay_is_synchronous():
    handled = []
    inbox = Inbox(Simulator(), handled.append, proc_delay=0.0)
    inbox.push(_request())
    assert len(handled) == 1


def test_queued_acks_jump_ahead_of_deregs():
    """The paper's rule: Acks are forwarded before hand-off transactions."""
    sim = Simulator()
    handled = []
    inbox = Inbox(sim, lambda m: handled.append(m.kind), proc_delay=0.1)
    inbox.push(_request())   # occupies the server
    inbox.push(_dereg())     # queued first
    inbox.push(_ack())       # queued second but higher priority
    sim.run()
    assert handled == ["request", "ack", "dereg"]


def test_priority_disabled_is_fifo():
    sim = Simulator()
    handled = []
    inbox = Inbox(sim, lambda m: handled.append(m.kind), proc_delay=0.1,
                  ack_priority=False)
    inbox.push(_request())
    inbox.push(_dereg())
    inbox.push(_ack())
    sim.run()
    assert handled == ["request", "dereg", "ack"]


def test_fifo_within_same_priority():
    sim = Simulator()
    handled = []
    inbox = Inbox(sim, handled.append, proc_delay=0.1)
    first, second = _ack(1), _ack(2)
    blocker = _request()
    inbox.push(blocker)
    inbox.push(first)
    inbox.push(second)
    sim.run()
    assert handled == [blocker, first, second]


def test_processing_takes_proc_delay_each(sim):
    times = []
    inbox = Inbox(sim, lambda m: times.append(sim.now), proc_delay=0.5)
    inbox.push(_request())
    inbox.push(_request())
    sim.run()
    assert times == [0.5, 1.0]


def test_depth_reports_waiting(sim):
    inbox = Inbox(sim, lambda m: None, proc_delay=1.0)
    inbox.push(_request())
    inbox.push(_request())
    inbox.push(_request())
    assert len(inbox._queue) == 2  # one in service


def test_raising_handler_does_not_wedge_queue(sim):
    # Regression: an exception inside the handler used to skip
    # _start_next(), leaving the server marked busy forever and silently
    # freezing every later message.
    handled = []

    def handler(message):
        if not handled:
            handled.append("failed")
            raise RuntimeError("handler blew up")
        handled.append(message)

    inbox = Inbox(sim, handler, proc_delay=0.5)
    inbox.push(_request())
    inbox.push(_ack(1))
    with pytest.raises(RuntimeError):
        sim.run()  # fails loudly on the first message...
    sim.run()
    assert handled[0] == "failed"  # ...but the queue kept going
    assert len(handled) == 2 and isinstance(handled[1], AckMsg)
    inbox.push(_request())
    sim.run()
    assert len(handled) == 3


def test_inbox_custom_priority_fn(sim):
    handled = []
    # Invert the default: requests beat acks.
    inbox = Inbox(sim, lambda m: handled.append(m.kind), proc_delay=0.1,
                  priority_fn=lambda m: 0 if m.kind == "request" else 1)
    blocker = AckMsg(mh=NodeId("mh:m"), request_id=RequestId("r0"), delivery_id=0)
    inbox.push(blocker)
    inbox.push(AckMsg(mh=NodeId("mh:m"), request_id=RequestId("r1"), delivery_id=1))
    inbox.push(RequestMsg(mh=NodeId("mh:m"), request_id=RequestId("r2"), service="s"))
    sim.run()
    assert handled == ["ack", "request", "ack"]
