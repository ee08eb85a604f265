"""Unit tests for the pref table and the prioritized inbox."""

from __future__ import annotations

import pytest

from repro.core.protocol import AckMsg, DeregMsg, RequestMsg
from repro.sim import Simulator
from repro.stations.inbox import (
    PRIORITY_ACK,
    PRIORITY_HANDOFF,
    PRIORITY_NORMAL,
    Inbox,
    default_priority,
)
from repro.stations.pref import Pref, PrefTable
from repro.types import NodeId, ProxyId, ProxyRef, RequestId


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
    assert not pref.has_proxy
    assert pref.outstanding == set()


def test_pref_clear_proxy_resets_everything():
    ref = ProxyRef(mss=NodeId("mss:a"), proxy_id=ProxyId("px"))
    pref = Pref(ref=ref, rkpr=True)
    pref.outstanding.add(RequestId("r"))
    pref.clear_proxy()
    assert pref.ref is None and not pref.rkpr and not pref.outstanding


def test_pref_table_ensure_idempotent():
    table = PrefTable()
    a = table.ensure(NodeId("mh:m"))
    b = table.ensure(NodeId("mh:m"))
    assert a is b
    assert NodeId("mh:m") in table
    assert len(table) == 1


def test_pref_table_pop_returns_empty_for_missing():
    table = PrefTable()
    pref = table.pop(NodeId("mh:ghost"))
    assert pref.ref is None


def test_pref_table_install_resets_outstanding():
    table = PrefTable()
    ref = ProxyRef(mss=NodeId("mss:a"), proxy_id=ProxyId("px"))
    old = table.ensure(NodeId("mh:m"))
    old.outstanding.add(RequestId("r"))
    fresh = table.install(NodeId("mh:m"), ref, rkpr=True)
    assert fresh.ref == ref and fresh.rkpr
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
    assert inbox.depth == 2  # one in service


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
