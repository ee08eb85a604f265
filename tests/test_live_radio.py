"""The live radio on a socketpair, without a cluster.

The two halves of the UDP radio — :class:`LiveWirelessStationSide` (an
MSS process's view) and :class:`LiveWirelessHostSide` (the driver's) —
share one event loop in this process, joined by a datagram socketpair, so
a test can reach into both ends.  Both are
:class:`repro.net.wireless.WirelessFabric`, like the simulated
:class:`WirelessChannel`; pinned here:

* what a frame meets when it arrives — unknown host, inactive host,
  wrong cell, flat loss, a fault-plan verdict, a congestion delay — and
  the trace row each outcome leaves;
* that a malformed or misaddressed datagram is ignored, and an uplink
  from a host that may not transmit raises;
* **one model** — a scripted life of one real :class:`MobileHost` leaves
  the same rows in the same order on the sim channel and on the sockets.
"""

from __future__ import annotations

import asyncio
import random
import socket
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.protocol import (
    GreetMsg,
    JoinMsg,
    RegisteredMsg,
    RequestMsg,
    WirelessResultMsg,
)
from repro.errors import NetworkError
from repro.hosts.mobile_host import MobileHost
from repro.instruments import Instruments
from repro.live.clock import LiveClock
from repro.live.codec import decode_envelope, message_to_obj
from repro.live.engine import AsyncioEngine
from repro.live.transport import LiveWirelessHostSide, LiveWirelessStationSide
from repro.net.faults import WirelessFaultPlan
from repro.net.message import Message
from repro.net.wireless import WirelessChannel
from repro.sim import Simulator, TraceRecorder
from repro.types import CellId, MhState, NodeId, RequestId

from tests.conftest import trace_filter

CELLS = (CellId("cell0"), CellId("cell1"))
#: The radio addresses its datagrams; on a socketpair there is one peer.
PEER = ("socketpair", 0)


class _End:
    """One end of the socketpair, with the ``sendto`` the radio calls."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self.sock = sock

    def sendto(self, data: bytes, addr: Any) -> int:
        return self.sock.send(data)


class _Station:
    """A base station that registers whoever announces itself."""

    def __init__(self, index: int, radio: Any) -> None:
        self.node_id = NodeId(f"mss:s{index}")
        self.cell_id = CELLS[index]
        self.radio = radio
        self.received: List[Message] = []
        radio.register_station(self)

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)
        if isinstance(message, (JoinMsg, GreetMsg)):
            self.radio.downlink(self, message.mh, RegisteredMsg(
                mh=message.mh, seq=message.seq))


class _Host:
    """A radio-level mobile host: a cell, a state, an inbox."""

    def __init__(self, name: str, radio: Any) -> None:
        self.node_id = NodeId(f"mh:{name}")
        self.current_cell: Optional[CellId] = CELLS[0]
        self.state = MhState.ACTIVE
        self.received: List[Message] = []
        radio.register_host(self)

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


def _result(host_id: NodeId, n: int = 1) -> WirelessResultMsg:
    return WirelessResultMsg(mh=host_id, request_id=RequestId(f"r{n}"),
                             delivery_id=n, payload=n)


def _request(host_id: NodeId, n: int = 1) -> RequestMsg:
    return RequestMsg(mh=host_id, request_id=RequestId(f"r{n}"),
                      service="svc")


class _Air:
    """Both halves of the live radio, two stations, one loop."""

    def __init__(self, **host_side: Any) -> None:
        self.loop = asyncio.new_event_loop()
        self.engine = AsyncioEngine(self.loop, LiveClock.start())
        self.recorder = TraceRecorder()
        self.socks = socket.socketpair(socket.AF_UNIX, socket.SOCK_DGRAM)
        self.station_side = LiveWirelessStationSide(
            self.engine, _End(self.socks[0]), PEER, recorder=self.recorder)
        self.stations = [_Station(i, self.station_side) for i in (0, 1)]
        self.host_side = LiveWirelessHostSide(
            self.engine, _End(self.socks[1]),
            {s.cell_id: (s.node_id, PEER) for s in self.stations},
            recorder=self.recorder, **host_side)

    def settle(self, seconds: float = 0.0) -> None:
        """Deliver every datagram in flight; with *seconds*, also let
        timers due within that long fire, then deliver what they sent."""
        self._pump()
        if seconds:
            self.loop.run_until_complete(asyncio.sleep(seconds))
            self._pump()

    def _pump(self) -> None:
        moved = True
        while moved:
            moved = False
            for sock, radio in zip(self.socks,
                                   (self.station_side, self.host_side)):
                try:
                    data = sock.recv(65536)
                except BlockingIOError:
                    continue
                radio.on_datagram(decode_envelope(data))
                moved = True

    def rows(self, kind: str) -> List[Tuple[str, Optional[str]]]:
        """``(msg, reason)`` of every recorded row of *kind*."""
        return [(rec.fields["msg"], rec.fields.get("reason"))
                for rec in trace_filter(self.recorder, kind=kind)]

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.loop.close()


@pytest.fixture
def air():
    made: List[_Air] = []

    def build(**host_side: Any) -> _Air:
        made.append(_Air(**host_side))
        return made[-1]
    yield build
    for one in made:
        one.close()


# -- what a downlink frame meets ----------------------------------------------


def test_downlink_reaches_an_active_host_in_the_cell(air):
    pair = air()
    host = _Host("h0", pair.host_side)
    pair.station_side.downlink(pair.stations[0], host.node_id,
                               _result(host.node_id))
    pair.settle()
    assert [m.kind for m in host.received] == ["wireless_result"]
    assert host.received[0].src == pair.stations[0].node_id
    assert pair.rows("send") == pair.rows("recv") == [
        ("wireless_result", None)]
    assert pair.host_side.monitor.received("wireless_result") == 1


def test_downlink_drop_reasons(air):
    pair = air()
    host = _Host("h0", pair.host_side)
    s0, s1 = pair.stations

    pair.station_side.downlink(s0, NodeId("mh:ghost"),
                               _result(NodeId("mh:ghost")))
    host.state = MhState.INACTIVE
    pair.station_side.downlink(s0, host.node_id, _result(host.node_id))
    pair.settle()
    host.state = MhState.ACTIVE
    pair.station_side.downlink(s1, host.node_id, _result(host.node_id))
    pair.settle()

    assert pair.rows("drop") == [("wireless_result", "unknown_host"),
                                 ("wireless_result", "inactive"),
                                 ("wireless_result", "not_in_cell")]
    assert host.received == [] and not pair.rows("recv")
    assert pair.host_side.monitor.drops("not_in_cell") == 1


def test_flat_loss_drops_in_both_directions(air):
    pair = air(loss_probability=1.0, rng=random.Random(3))
    host = _Host("h0", pair.host_side)
    pair.station_side.downlink(pair.stations[0], host.node_id,
                               _result(host.node_id))
    pair.host_side.uplink(host, _request(host.node_id))
    pair.settle()
    assert sorted(pair.rows("drop")) == [("request", "loss"),
                                         ("wireless_result", "loss")]
    assert host.received == [] and pair.stations[0].received == []
    assert not pair.rows("wireless_drop")


def test_plan_verdicts_are_wireless_drops(air):
    plan = WirelessFaultPlan(random.Random(1), handoff_blackout=30.0,
                             blackouts=((CELLS[1], 0.0, 1e9),))
    pair = air(faults=plan)
    host = _Host("h0", pair.host_side)
    pair.host_side.note_handoff(host.node_id)
    pair.station_side.downlink(pair.stations[0], host.node_id,
                               _result(host.node_id))
    pair.settle()
    host.current_cell = CELLS[1]
    pair.host_side.uplink(host, _request(host.node_id))
    pair.settle()
    assert pair.rows("wireless_drop") == [
        ("wireless_result", "handoff_blackout"), ("request", "blackout")]
    assert not pair.rows("drop") and not pair.rows("recv")


def test_congestion_delays_the_frame_and_leaves_a_row(air):
    plan = WirelessFaultPlan(random.Random(1), congestion_probability=1.0,
                             congestion_delay=0.05)
    pair = air(faults=plan)
    host = _Host("h0", pair.host_side)
    pair.host_side.uplink(host, _request(host.node_id))
    pair.station_side.downlink(pair.stations[0], host.node_id,
                               _result(host.node_id))
    pair.settle()
    assert host.received == [] and pair.stations[0].received == []
    delays = trace_filter(pair.recorder, kind="wireless_delay")
    assert [(r.node, r.fields["msg"], r.fields["extra"]) for r in delays] == [
        (host.node_id, "request", 0.05),
        (pair.stations[0].node_id, "wireless_result", 0.05)]
    pair.settle(0.1)
    assert [m.kind for m in host.received] == ["wireless_result"]
    assert [m.kind for m in pair.stations[0].received] == ["request"]


def test_host_going_inactive_under_a_delayed_frame_is_host_inactive(air):
    plan = WirelessFaultPlan(random.Random(1), congestion_probability=1.0,
                             congestion_delay=0.02)
    pair = air(faults=plan)
    host = _Host("h0", pair.host_side)
    pair.station_side.downlink(pair.stations[0], host.node_id,
                               _result(host.node_id))
    pair.settle()
    host.state = MhState.INACTIVE
    pair.settle(0.06)
    assert pair.rows("wireless_drop") == [("wireless_result", "host_inactive")]


# -- input from outside, and callers that may not transmit --------------------


def test_malformed_and_misaddressed_datagrams_are_ignored(air):
    pair = air()
    host = _Host("h0", pair.host_side)
    good = message_to_obj(_request(host.node_id))
    for obj in ({"t": "wmsg"},
                {"t": "wmsg", "cell": CELLS[0]},
                {"t": "wmsg", "cell": CELLS[0], "m": {"kind": "no-such"}},
                {"t": "wmsg", "cell": CELLS[0], "m": "not an object"},
                {"t": "wmsg", "cell": "cell9", "m": good}):
        pair.station_side.on_datagram(dict(obj))
    for obj in ({"t": "wmsg"}, {"t": "wmsg", "cell": CELLS[0], "m": 7}):
        pair.host_side.on_datagram(dict(obj))
    pair.settle()
    assert len(pair.recorder.records) == 0
    assert all(s.received == [] for s in pair.stations)


def test_uplink_from_a_host_that_may_not_transmit_raises(air):
    pair = air()
    host = _Host("h0", pair.host_side)
    host.state = MhState.INACTIVE
    with pytest.raises(NetworkError, match="cannot transmit while"):
        pair.host_side.uplink(host, _request(host.node_id))
    host.state, host.current_cell = MhState.ACTIVE, None
    with pytest.raises(NetworkError, match="not in any cell"):
        pair.host_side.uplink(host, _request(host.node_id))
    pair.settle()
    assert len(pair.recorder.records) == 0


# -- one model: the same life on both engines ---------------------------------


def _life_of_one_host(engine: Any, recorder: TraceRecorder, host_radio: Any,
                      stations: List[_Station], settle: Any) -> List[Tuple]:
    """Join, request, result, deactivate, result, wake and migrate, a
    result from the old cell, a result from the new one."""
    host = MobileHost(engine, "h0", host_radio,
                      instruments=Instruments(recorder=recorder),
                      greet_retry_interval=0.0)
    s0, s1 = stations
    for step in (
            lambda: host.join(CELLS[0]),
            lambda: host.send_request("svc", {"n": 1}),
            lambda: s0.radio.downlink(s0, host.node_id,
                                      _result(host.node_id, 1)),
            host.deactivate,
            lambda: s0.radio.downlink(s0, host.node_id,
                                      _result(host.node_id, 2)),
            host.activate,
            lambda: host.migrate_to(CELLS[1]),
            lambda: s0.radio.downlink(s0, host.node_id,
                                      _result(host.node_id, 3)),
            lambda: s1.radio.downlink(s1, host.node_id,
                                      _result(host.node_id, 4))):
        step()
        settle()
    assert [request for _, request, _ in host.deliveries] == ["r1", "r4"]
    return [(rec.kind, rec.node, rec.fields.get("net"),
             rec.fields.get("msg"), rec.fields.get("reason"))
            for rec in recorder.records]


def test_sim_channel_and_live_radio_leave_the_same_rows(air):
    sim = Simulator()
    sim_recorder = TraceRecorder()
    channel = WirelessChannel(sim, recorder=sim_recorder)
    sim_rows = _life_of_one_host(
        sim, sim_recorder, channel,
        [_Station(i, channel) for i in (0, 1)], sim.run)

    pair = air()
    live_rows = _life_of_one_host(pair.engine, pair.recorder, pair.host_side,
                                  pair.stations, pair.settle)

    assert live_rows == sim_rows
    kinds: Dict[str, int] = {}
    for kind, _node, net, _msg, _reason in sim_rows:
        if net == "wireless":
            kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds == {"send": 13, "recv": 11, "drop": 2}
