"""Tests for the wired network and the wireless channel."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.errors import NetworkError, UnknownNodeError
from repro.instruments import Instruments
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.monitor import NetworkMonitor
from repro.net.wired import WiredNetwork
from repro.net.wireless import WirelessChannel
from repro.sim import Simulator
from repro.types import CellId, MhState, NodeId, mh_id

from tests.conftest import per_kind


@dataclass(slots=True, kw_only=True)
class _Ping(Message):
    kind: ClassVar[str] = "ping"
    tag: str = ""


class _StaticNode:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)
        self.received = []

    def on_wired_message(self, message: Message) -> None:
        self.received.append(message)


class _Station:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.cell_id = CellId(cell)
        self.received = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


class _Host:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.current_cell = CellId(cell)
        self.state = MhState.ACTIVE
        self.received = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


def _wired(sim, **kw):
    return WiredNetwork(sim, latency=ConstantLatency(0.01), **kw)


def test_wired_delivery(sim):
    net = _wired(sim)
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _Ping(tag="x"))
    sim.run()
    assert [m.tag for m in b.received] == ["x"]
    assert b.received[0].src == a.node_id


def test_wired_unknown_destination(sim):
    net = _wired(sim)
    a = _StaticNode("a")
    net.attach(a)
    with pytest.raises(UnknownNodeError):
        net.send(a.node_id, NodeId("ghost"), _Ping())


def test_wired_unknown_source(sim):
    net = _wired(sim)
    a = _StaticNode("a")
    net.attach(a)
    with pytest.raises(UnknownNodeError):
        net.send(NodeId("ghost"), a.node_id, _Ping())


def test_wired_causal_default_restores_order(sim):
    """Variable latency reorders raw messages; causal mode fixes it."""
    from repro.net.latency import UniformLatency
    import random

    for ordering, expect_ordered in (("raw", False), ("causal", True)):
        sim = Simulator()
        net = WiredNetwork(sim, latency=UniformLatency(0.001, 0.2),
                           rng=random.Random(42), ordering=ordering)
        a, b = _StaticNode("a"), _StaticNode("b")
        net.attach(a)
        net.attach(b)
        for i in range(30):
            net.send(a.node_id, b.node_id, _Ping(tag=f"{i:02d}"))
        sim.run()
        tags = [m.tag for m in b.received]
        assert len(tags) == 30
        assert (tags == sorted(tags)) == expect_ordered


def test_wired_monitor_counts(sim):
    instr = Instruments()
    net = _wired(sim, monitor=instr.monitor)
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _Ping())
    net.send(b.node_id, a.node_id, _Ping())
    sim.run()
    assert instr.monitor.count("ping") == 2
    assert instr.monitor.load_of(a.node_id) == 2  # one sent + one received
    assert instr.monitor.bytes_of("ping") > 0


def test_downlink_delivers_to_active_in_cell_host(sim):
    chan = WirelessChannel(sim, latency=ConstantLatency(0.005))
    station = _Station("mss:a", "c1")
    host = _Host("mh:h", "c1")
    chan.register_station(station)
    chan.register_host(host)
    chan.downlink(station, host.node_id, _Ping(tag="hello"))
    sim.run()
    assert [m.tag for m in host.received] == ["hello"]


def test_downlink_dropped_when_host_migrated(sim):
    chan = WirelessChannel(sim, latency=ConstantLatency(0.005))
    station = _Station("mss:a", "c1")
    host = _Host("mh:h", "c1")
    chan.register_station(station)
    chan.register_host(host)
    chan.downlink(station, host.node_id, _Ping())
    host.current_cell = CellId("c2")  # moves while the frame is in the air
    sim.run()
    assert host.received == []
    assert chan.monitor.drops("not_in_cell") == 1


def test_downlink_dropped_when_host_inactive(sim):
    chan = WirelessChannel(sim, latency=ConstantLatency(0.005))
    station = _Station("mss:a", "c1")
    host = _Host("mh:h", "c1")
    host.state = MhState.INACTIVE
    chan.register_station(station)
    chan.register_host(host)
    chan.downlink(station, host.node_id, _Ping())
    sim.run()
    assert host.received == []
    assert chan.monitor.drops("inactive") == 1


def test_uplink_reaches_current_cell_station(sim):
    chan = WirelessChannel(sim, latency=ConstantLatency(0.005))
    s1 = _Station("mss:a", "c1")
    s2 = _Station("mss:b", "c2")
    host = _Host("mh:h", "c2")
    chan.register_station(s1)
    chan.register_station(s2)
    chan.register_host(host)
    chan.uplink(host, _Ping(tag="up"))
    sim.run()
    assert s1.received == []
    assert [m.tag for m in s2.received] == ["up"]


def test_uplink_rejected_while_inactive(sim):
    chan = WirelessChannel(sim)
    s1 = _Station("mss:a", "c1")
    host = _Host("mh:h", "c1")
    host.state = MhState.INACTIVE
    chan.register_station(s1)
    chan.register_host(host)
    with pytest.raises(NetworkError):
        chan.uplink(host, _Ping())


def test_loss_probability_drops_messages(sim):
    import random

    chan = WirelessChannel(sim, latency=ConstantLatency(0.001),
                           loss_probability=0.5, rng=random.Random(9))
    station = _Station("mss:a", "c1")
    host = _Host("mh:h", "c1")
    chan.register_station(station)
    chan.register_host(host)
    for _ in range(200):
        chan.downlink(station, host.node_id, _Ping())
    sim.run()
    assert 50 < len(host.received) < 150
    assert chan.monitor.drops("loss") == 200 - len(host.received)


def test_invalid_loss_probability():
    with pytest.raises(NetworkError):
        WirelessChannel(Simulator(), loss_probability=1.5)


def test_unknown_cell_station_lookup(sim):
    chan = WirelessChannel(sim)
    with pytest.raises(UnknownNodeError):
        chan.station_of(CellId("nowhere"))


# -- monitor ---------------------------------------------------------------------

def test_monitor_kind_histogram_and_drops():
    from repro.core.protocol import AckMsg, RequestMsg
    from repro.types import RequestId

    monitor = NetworkMonitor()
    req = RequestMsg(mh=mh_id("m"), request_id=RequestId("r"), service="s")
    req.src, req.dst = NodeId("a"), NodeId("b")
    ack = AckMsg(mh=mh_id("m"), request_id=RequestId("r"), delivery_id=1)
    ack.src, ack.dst = NodeId("b"), NodeId("a")
    monitor.on_send("wireless", req)
    monitor.on_send("wireless", ack)
    monitor.on_deliver("wireless", req)
    monitor.on_drop("wireless", ack, "loss")
    assert per_kind(monitor, "sent") == {"request": 1, "ack": 1}
    assert monitor.total_messages() == 2
    assert monitor.drops() == 1 and monitor.drops("loss") == 1
    assert monitor.drops("not_in_cell") == 0
    assert monitor.load_of(NodeId("a")) == 1       # sent the request
    assert monitor.load_of(NodeId("b")) == 2       # sent the ack + received
