"""Hot-path guarantees: zero-cost tracing when disabled, and the indexed
causal drain delivering in exactly the order of the classic rescan."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List

from repro.net.causal import CausalOrdering, OrderingLayer, StampedMessage
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.vectorclock import VectorClock
from repro.net.wired import WiredNetwork
from repro.net.wireless import WirelessChannel
from repro.sim import Simulator, TraceRecorder
from repro.types import CellId, MhState, NodeId


@dataclass(slots=True, kw_only=True)
class _TrackedMsg(Message):
    kind: ClassVar[str] = "tracked"
    tag: str = ""

    def describe(self) -> str:
        _DESCRIBE_CALLS.append(self.tag)
        return f"tracked {self.tag}"


_DESCRIBE_CALLS: List[str] = []


class _StaticNode:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)
        self.received: List[Message] = []

    def on_wired_message(self, message: Message) -> None:
        self.received.append(message)


class _Station:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.cell_id = CellId(cell)
        self.received: List[Message] = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


class _Host:
    def __init__(self, name: str, cell: str) -> None:
        self.node_id = NodeId(name)
        self.current_cell = CellId(cell)
        self.state = MhState.ACTIVE
        self.received: List[Message] = []

    def on_wireless_message(self, message: Message) -> None:
        self.received.append(message)


# -- zero-cost tracing --------------------------------------------------------


def test_no_describe_on_wired_path_when_recorder_disabled(sim):
    _DESCRIBE_CALLS.clear()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(enabled=False))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    assert [m.tag for m in b.received] == ["w1"]
    assert _DESCRIBE_CALLS == []


def test_no_describe_on_wireless_path_when_recorder_disabled(sim):
    _DESCRIBE_CALLS.clear()
    channel = WirelessChannel(sim, latency=ConstantLatency(0.005),
                              recorder=TraceRecorder(enabled=False))
    station = _Station("mss:a", "cell:a")
    host = _Host("mh:m", "cell:a")
    channel.register_station(station)
    channel.register_host(host)
    channel.downlink(station, host.node_id, _TrackedMsg(tag="down"))
    channel.uplink(host, _TrackedMsg(tag="up"))
    sim.run()
    assert [m.tag for m in host.received] == ["down"]
    assert [m.tag for m in station.received] == ["up"]
    assert _DESCRIBE_CALLS == []


def test_no_describe_when_kind_filtered_out(sim):
    _DESCRIBE_CALLS.clear()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(kinds={"drop"}))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    # Both fabrics write their rows through Fabric._row.
    channel = WirelessChannel(sim, recorder=TraceRecorder(kinds={"drop"}))
    station, host = _Station("mss:a", "cell:a"), _Host("mh:m", "cell:a")
    channel.register_station(station)
    channel.register_host(host)
    channel.downlink(station, host.node_id, _TrackedMsg(tag="down"))
    channel.uplink(host, _TrackedMsg(tag="up"))
    sim.run()
    assert [m.tag for m in b.received + host.received
            + station.received] == ["w1", "down", "up"]
    assert _DESCRIBE_CALLS == []


def test_describe_still_evaluated_when_recording(sim):
    _DESCRIBE_CALLS.clear()
    recorder = TraceRecorder()
    net = WiredNetwork(sim, latency=ConstantLatency(0.01), recorder=recorder)
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    assert _DESCRIBE_CALLS == ["w1", "w1"]  # send + recv
    assert recorder.filter(kind="send")[0].get("detail") == "tracked w1"


# -- indexed causal drain vs the classic rescan -------------------------------


class _RescanCausalOrdering(OrderingLayer):
    """Reference implementation: the pre-index SES layer with the
    O(n^2) rescan-from-start hold-back drain.  Kept verbatim (modulo
    naming) as the executable spec of delivery order."""

    def __init__(self) -> None:
        self._knowledge: Dict[NodeId, VectorClock] = {}
        self._sent: Dict[NodeId, int] = {}
        self._dep: Dict[NodeId, Dict[str, VectorClock]] = {}
        self._buffers: Dict[NodeId, List[StampedMessage]] = {}

    def _endpoint(self, node: NodeId):
        if node not in self._knowledge:
            self._knowledge[node] = VectorClock()
            self._dep[node] = {}
            self._sent[node] = 0
        return self._knowledge[node], self._dep[node]

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        knowledge, dep = self._endpoint(src)
        self._sent[src] += 1
        stamp = knowledge.copy()
        stamp.merge(VectorClock({src: self._sent[src]}))
        constraints = {node: clock.copy() for node, clock in dep.items()}
        dep[dst] = stamp.copy()
        return StampedMessage(message=message, stamp=stamp, constraints=constraints)

    def on_arrival(self, dst: NodeId, stamped: StampedMessage,
                   deliver: Callable[[Message], None]) -> None:
        self._buffers.setdefault(dst, []).append(stamped)
        buffer = self._buffers[dst]
        progressed = True
        while progressed:
            progressed = False
            for index, held in enumerate(buffer):
                knowledge, _ = self._endpoint(dst)
                constraint = held.constraints.get(dst)
                if constraint is None or knowledge.dominates(constraint):
                    buffer.pop(index)
                    self._commit(dst, held)
                    deliver(held.message)
                    progressed = True
                    break

    def _commit(self, node: NodeId, stamped: StampedMessage) -> None:
        vt, dep = self._endpoint(node)
        vt.merge(stamped.stamp)
        for other, clock in stamped.constraints.items():
            if other == node:
                continue
            if other in dep:
                dep[other].merge(clock)
            else:
                dep[other] = clock.copy()


def _random_traffic(seed: int, n_nodes: int, n_messages: int):
    """One randomized run: sends with random jitter per message, arrivals
    processed in (arrival time, send order) order — latency inversions
    included, exactly what the hold-back buffer exists for."""
    rng = random.Random(seed)
    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    sends = []
    clock = 0.0
    for i in range(n_messages):
        clock += rng.random()
        src = rng.choice(nodes)
        dst = rng.choice(nodes)
        arrival = clock + rng.uniform(0.0, 8.0)
        sends.append((clock, arrival, i, src, dst))
    return sends


def _deliveries(layer: OrderingLayer, sends) -> List[tuple]:
    order: List[tuple] = []
    arrivals = []
    for send_time, arrival, i, src, dst in sorted(sends):
        msg = _TrackedMsg(tag=f"m{i}")
        stamped = layer.on_send(src, dst, msg)
        arrivals.append((arrival, i, dst, stamped))
    for _, _, dst, stamped in sorted(arrivals):
        layer.on_arrival(dst, stamped,
                         lambda m, _dst=dst: order.append((_dst, m.tag)))
    return order


def test_indexed_drain_matches_rescan_order_under_stress():
    _DESCRIBE_CALLS.clear()
    for seed in range(20):
        sends = _random_traffic(seed, n_nodes=6, n_messages=120)
        fast = _deliveries(CausalOrdering(), sends)
        reference = _deliveries(_RescanCausalOrdering(), sends)
        assert len(fast) == 120
        assert fast == reference, f"delivery order diverged for seed {seed}"


def test_indexed_drain_interleaved_sends_and_arrivals():
    # Sends interleaved with arrivals (knowledge evolves between sends),
    # mimicking live request/response traffic rather than batch replay.
    for seed in range(10):
        rng = random.Random(1000 + seed)
        nodes = [NodeId(f"n{i}") for i in range(5)]
        fast, reference = CausalOrdering(), _RescanCausalOrdering()
        fast_order: List[tuple] = []
        ref_order: List[tuple] = []
        pending_fast: List[tuple] = []
        pending_ref: List[tuple] = []
        for i in range(200):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            msg = _TrackedMsg(tag=f"m{i}")
            pending_fast.append((dst, fast.on_send(src, dst, msg)))
            pending_ref.append((dst, reference.on_send(src, dst, msg)))
            while pending_fast and rng.random() < 0.6:
                take = rng.randrange(len(pending_fast))
                dst_f, stamped_f = pending_fast.pop(take)
                dst_r, stamped_r = pending_ref.pop(take)
                fast.on_arrival(dst_f, stamped_f,
                                lambda m, _d=dst_f: fast_order.append((_d, m.tag)))
                reference.on_arrival(dst_r, stamped_r,
                                     lambda m, _d=dst_r: ref_order.append((_d, m.tag)))
        for (dst_f, stamped_f), (dst_r, stamped_r) in zip(pending_fast, pending_ref):
            fast.on_arrival(dst_f, stamped_f,
                            lambda m, _d=dst_f: fast_order.append((_d, m.tag)))
            reference.on_arrival(dst_r, stamped_r,
                                 lambda m, _d=dst_r: ref_order.append((_d, m.tag)))
        assert len(fast_order) == 200
        assert fast_order == ref_order


def test_held_count_and_retire_prune_state():
    layer = CausalOrdering()
    a, b, c = NodeId("a"), NodeId("b"), NodeId("c")
    layer.on_send(a, b, _TrackedMsg(tag="first"))  # stamp never arrives
    second = layer.on_send(a, b, _TrackedMsg(tag="second"))
    got: List[str] = []
    layer.on_arrival(b, second, lambda m: got.append(m.tag))
    assert got == [] and layer.held_count(b) == 1  # held: first not seen yet
    assert layer.retire(b) == 1  # drops the held message with the endpoint
    assert layer.held_count(b) == 0
    # a's constraint table no longer references the retired endpoint...
    stamped = layer.on_send(a, c, _TrackedMsg(tag="third"))
    assert b not in stamped.constraints
    # ...and a re-created endpoint starts fresh: new sends deliver.
    refreshed = layer.on_send(a, b, _TrackedMsg(tag="fresh"))
    layer.on_arrival(b, refreshed, lambda m: got.append(m.tag))
    assert got == ["fresh"]


def test_wired_detach_retires_ordering_state(sim):
    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       recorder=TraceRecorder(enabled=False))
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _TrackedMsg(tag="w1"))
    sim.run()
    net.detach(b.node_id)
    assert not net.knows(b.node_id)
    assert net.ordering.retire(b.node_id) == 0  # idempotent, already pruned
