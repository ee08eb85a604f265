"""Hot-path guarantees: zero-cost tracing when disabled, the indexed
causal drain delivering in exactly the order of the classic rescan, the
heads lemma holding at every comparison the causal layer makes, and the
novelty skip delivering exactly what the full table merge delivers."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Dict, List

import pytest

from repro.config import WiredFaultSpec
from repro.experiments import bench as bench_mod
from repro.net import message as message_mod
from repro.net.causal import CausalOrdering, OrderingLayer, StampedMessage
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.vectorclock import VectorClock
from repro.net.wired import WiredNetwork
from repro.net.wireless import WirelessChannel
from repro.obs.registry import CounterFamily, MetricFamily
from repro.sim import Simulator, TraceRecorder
from repro.types import CellId, MhState, NodeId

from tests.conftest import trace_filter
from tests.test_net_causal import held


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
    assert trace_filter(recorder, kind="send")[0].get("detail") == "tracked w1"


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


def _ops(sends, replay: bool) -> List[tuple]:
    """The ``("send" | "arrive", i, src, dst)`` sequence of a plan: all
    sends first, then the arrivals in arrival order; or, with *replay*,
    in time order, each send after the arrivals that precede it, so
    stamps carry what their sender had received and merged constraint
    tables travel on."""
    if not replay:
        return ([("send", i, src, dst) for _, _, i, src, dst in sorted(sends)]
                + [("arrive", i, src, dst)
                   for _, i, src, dst in sorted((a, i, s, d)
                                                for _, a, i, s, d in sends)])
    events = [(t, 0, i, src, dst) for t, _, i, src, dst in sends]
    events += [(a, 1, i, src, dst) for _, a, i, src, dst in sends]
    return [("arrive" if is_arrival else "send", i, src, dst)
            for _, is_arrival, i, src, dst in sorted(events)]


def _interleaved_ops(seed: int, n_nodes: int, n_messages: int) -> List[tuple]:
    """Sends interleaved with arrivals of random in-flight messages
    (knowledge evolves between sends), like live request/response
    traffic rather than batch replay."""
    rng = random.Random(1000 + seed)
    nodes = [NodeId(f"n{i}") for i in range(n_nodes)]
    ops: List[tuple] = []
    pending: List[tuple] = []
    for i in range(n_messages):
        src, dst = rng.choice(nodes), rng.choice(nodes)
        ops.append(("send", i, src, dst))
        pending.append(("arrive", i, src, dst))
        while pending and rng.random() < 0.6:
            ops.append(pending.pop(rng.randrange(len(pending))))
    return ops + pending


def _drive(layer: OrderingLayer, ops: List[tuple]) -> List[tuple]:
    """Run *ops* through *layer*; return the ``(dst, tag)`` deliveries."""
    order: List[tuple] = []
    in_flight: Dict[int, StampedMessage] = {}
    for op, i, src, dst in ops:
        if op == "send":
            in_flight[i] = layer.on_send(src, dst, _TrackedMsg(tag=f"m{i}"))
        else:
            layer.on_arrival(dst, in_flight.pop(i),
                             lambda m, _dst=dst: order.append((_dst, m.tag)))
    return order


def _deliveries(layer: OrderingLayer, sends) -> List[tuple]:
    return _drive(layer, _ops(sends, replay=False))


def _replay(layer: OrderingLayer, sends) -> List[tuple]:
    return _drive(layer, _ops(sends, replay=True))


def test_indexed_drain_matches_rescan_order_under_stress():
    _DESCRIBE_CALLS.clear()
    plans = [(seed, 6, 120) for seed in range(20)] + [(20, 40, 2000)]
    for seed, n_nodes, n_messages in plans:
        sends = _random_traffic(seed, n_nodes=n_nodes, n_messages=n_messages)
        fast = _deliveries(CausalOrdering(), sends)
        reference = _deliveries(_RescanCausalOrdering(), sends)
        assert len(fast) == n_messages
        assert fast == reference, f"delivery order diverged for seed {seed}"
    sends = _random_traffic(21, n_nodes=40, n_messages=2000)
    fast = _replay(CausalOrdering(), sends)
    assert len(fast) == 2000
    assert fast == _replay(_RescanCausalOrdering(), sends)


def test_indexed_drain_interleaved_sends_and_arrivals():
    for seed in range(10):
        ops = _interleaved_ops(seed, n_nodes=5, n_messages=200)
        fast = _drive(CausalOrdering(), ops)
        assert len(fast) == 200
        assert fast == _drive(_RescanCausalOrdering(), ops)


# -- the heads lemma, checked where the layer uses it -------------------------


class _RecordingCausalOrdering(CausalOrdering):
    """The shipped layer, remembering every stamp under its name."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: Dict[tuple, VectorClock] = {}

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        stamped = super().on_send(src, dst, message)
        (head,) = stamped.stamp.heads
        assert head not in self.stamps, f"stamp {head} issued twice"
        self.stamps[head] = stamped.stamp
        return stamped


def _lemma_audit(monkeypatch):
    """Wrap the two heads operations of ``VectorClock`` and the table
    merge ``CausalOrdering._commit`` (as they are when called) so that
    every dominance verdict a ``_RecordingCausalOrdering`` reaches —
    through ``missing`` or inline in ``_commit`` — is also reached
    component-wise, once, and every frozen clock it compares or builds is
    checked to be the pointwise max of its heads' stamps.  Returns a
    factory for the layer and the tallies."""
    layers: List[_RecordingCausalOrdering] = []
    tally: Counter = Counter()
    sound: Dict[int, VectorClock] = {}   # frozen clocks already checked
    real_missing, real_merged = VectorClock.missing, VectorClock.merged
    real_commit = CausalOrdering._commit

    def check_frozen(clock: VectorClock) -> None:
        if id(clock) in sound:
            return
        rebuilt = VectorClock()
        for head in clock.heads:
            rebuilt.merge(layers[-1].stamps[head])
        assert clock == rebuilt, f"{clock!r} is not the max of {clock.heads}"
        sound[id(clock)] = clock          # kept alive: ids stay unique
        tally["max_heads"] = max(tally["max_heads"], len(clock.heads))

    def verdict(clock: VectorClock, other: VectorClock) -> bool:
        """``other <= clock`` from *other*'s heads, checked component-wise."""
        reached = all(clock.get(sender) >= seq for sender, seq in other.heads)
        assert reached == clock.dominates(other), (
            f"heads {other.heads} of {other!r} against {clock!r}")
        tally["compares"] += 1
        return reached

    def missing(self: VectorClock, other: VectorClock):
        check_frozen(other)
        if self.heads:                    # not a (mutable) knowledge clock
            check_frozen(self)
        blocker = real_missing(self, other)
        assert (blocker is None) == self.dominates(other), (
            f"heads {other.heads} of {other!r} against {self!r}")
        assert blocker is None or self.get(blocker) < other.get(blocker)
        tally["compares"] += 1
        return blocker

    def merged(self: VectorClock, other: VectorClock) -> VectorClock:
        out = real_merged(self, other)
        check_frozen(out)
        tally["merges"] += 1
        tally["shared"] += bool(set(self.heads) & set(other.heads))
        return out

    def commit(endpoint, node: NodeId, stamped: StampedMessage) -> List[str]:
        """Run the shipped merge, then re-derive its outcome entry by
        entry from component-wise verdicts: skip what the pre-delivery
        knowledge covers (novelty), else adopt, keep or merge."""
        known, dep = endpoint.knowledge.copy(), dict(endpoint.dep)
        advanced = real_commit(endpoint, node, stamped)
        expected = known.copy()
        expected.merge(stamped.stamp)
        assert endpoint.knowledge == expected
        assert sorted(advanced) == sorted(
            n for n in expected._clock if expected.get(n) > known.get(n))
        for other, clock in stamped.constraints.items():
            current, after = dep.get(other), endpoint.dep.get(other)
            if current is clock:
                assert after is clock
                continue
            check_frozen(clock)
            vacuous = verdict(known, clock)
            tally["novelty_skips"] += vacuous
            if vacuous or other == node:
                assert after is current, f"entry for {other} merged"
                continue
            if current is not None:
                check_frozen(current)
            if current is None or verdict(clock, current):
                assert after is clock
            elif verdict(current, clock):
                assert after is current
            else:
                union = current.copy()
                union.merge(clock)
                assert after == union and after is not current
        return advanced

    def make() -> _RecordingCausalOrdering:
        layers.append(_RecordingCausalOrdering())
        sound.clear()
        return layers[-1]

    monkeypatch.setattr(VectorClock, "missing", missing)
    monkeypatch.setattr(VectorClock, "merged", merged)
    monkeypatch.setattr(CausalOrdering, "_commit", staticmethod(commit))
    return make, tally


def _city_traffic(seed: int, side: int, hubs: int, n_messages: int):
    """Traffic shaped like ``sim-city``: stations of a side x side grid
    talk to their grid neighbours (hand-offs) and to a few hubs (the TIS
    servers), which answer and gossip among themselves."""
    rng = random.Random(seed)
    grid = [[NodeId(f"s{x}_{y}") for y in range(side)] for x in range(side)]
    hub_ids = [NodeId(f"hub{i}") for i in range(hubs)]

    def station():
        return rng.randrange(side), rng.randrange(side)

    sends = []
    clock = 0.0
    for i in range(n_messages):
        clock += rng.random()
        kind = rng.random()
        x, y = station()
        if kind < 0.40:
            dx, dy = rng.choice([(0, 1), (1, 0), (0, -1), (-1, 0)])
            src = grid[x][y]
            dst = grid[(x + dx) % side][(y + dy) % side]
        elif kind < 0.70:
            src, dst = grid[x][y], rng.choice(hub_ids)
        elif kind < 0.95:
            src, dst = rng.choice(hub_ids), grid[x][y]
        else:
            src, dst = rng.choice(hub_ids), rng.choice(hub_ids)
        sends.append((clock, clock + rng.uniform(0.0, 8.0), i, src, dst))
    return sends


def test_heads_verdict_equals_componentwise_at_every_comparison(monkeypatch):
    make, tally = _lemma_audit(monkeypatch)
    plans = [_random_traffic(seed, n_nodes=6, n_messages=120)
             for seed in range(20)]
    for sends in plans:                   # as the rescan tests replay them
        assert len(_deliveries(make(), sends)) == len(sends)
    # uniform-random: many concurrent merges, clocks of up to ~11 heads
    plans.append(_random_traffic(148, n_nodes=148, n_messages=1500))
    plans.append(_city_traffic(12, side=12, hubs=4, n_messages=2500))
    plans.append(_random_traffic(2, n_nodes=2, n_messages=200))  # half self-sends
    for sends in plans:
        assert len(_replay(make(), sends)) == len(sends)
    assert tally["compares"] > 300_000 and tally["merges"] > 20_000
    assert tally["novelty_skips"] > 100_000   # vacuous entries left unmerged
    assert tally["shared"] > 1_000        # merges whose operands share a head
    assert tally["max_heads"] >= 8


def _shared_head_merge(layer: CausalOrdering) -> List[str]:
    """x learns ``dep[d] = a:1 v b:1`` and y learns ``dep[d] = a:1 v c:1``;
    z hears from both and must end with ``a:1 v b:1 v c:1``: the head
    both operands share has to survive their merge.  z then writes to d,
    which has heard from b and c but not yet from a."""
    a, b, c, d, x, y, z = (NodeId(n) for n in "abcdxyz")
    got: List[str] = []

    def send(src: NodeId, dst: NodeId, tag: str) -> StampedMessage:
        return layer.on_send(src, dst, _TrackedMsg(tag=tag))

    def arrive(dst: NodeId, stamped: StampedMessage) -> None:
        layer.on_arrival(dst, stamped, lambda m: got.append(m.tag))

    to_d = {n: send(n, d, f"{n}->d") for n in (a, b, c)}
    for src, dst in ((a, x), (b, x), (a, y), (c, y)):
        arrive(dst, send(src, dst, f"{src}->{dst}"))
    for relay in (x, y):
        arrive(z, send(relay, z, f"{relay}->z"))
    z_to_d = send(z, d, "z->d")
    assert z_to_d.constraints[d] == VectorClock({a: 1, b: 1, c: 1})
    arrive(d, to_d[b])
    arrive(d, to_d[c])
    arrive(d, z_to_d)
    assert got[-1] == "c->d" and held(layer, d) == 1   # waits for a
    arrive(d, to_d[a])
    return got[-2:]


def test_merge_keeps_a_head_both_operands_share(monkeypatch):
    make, tally = _lemma_audit(monkeypatch)
    assert _shared_head_merge(make()) == ["a->d", "z->d"]
    assert tally["shared"] == 1


def test_a_merge_that_drops_a_shared_head_is_caught(monkeypatch):
    # The tempting filter — keep the heads the other side does not cover —
    # loses a head present in both operands.
    def drop_covered(self: VectorClock, other: VectorClock) -> VectorClock:
        out = self.copy()
        out.merge(other)
        out.heads = tuple(
            [h for h in self.heads if other.get(h[0]) < h[1]]
            + [h for h in other.heads if self.get(h[0]) < h[1]])
        return out

    monkeypatch.setattr(VectorClock, "merged", drop_covered)
    with pytest.raises(AssertionError):   # z->d overtakes a->d
        _shared_head_merge(CausalOrdering())
    make, _ = _lemma_audit(monkeypatch)
    with pytest.raises(AssertionError, match="is not the max of"):
        _shared_head_merge(make())


# -- the novelty skip against the full merge ----------------------------------


class _FullMergeCausalOrdering(CausalOrdering):
    """Reference: the shipped layer with the table merge it had before
    the novelty skip — every entry of a delivered table is compared and
    folded in.  Kept verbatim as the executable spec of the tables."""

    @staticmethod
    def _commit(endpoint, node: NodeId, stamped: StampedMessage) -> List[str]:
        advanced = endpoint.knowledge.update_max(stamped.stamp)
        dep = endpoint.dep
        for other, clock in stamped.constraints.items():
            if other == node:
                continue
            current = dep.get(other)
            if current is None:
                dep[other] = clock
            elif current is not clock:
                if clock.missing(current) is None:
                    dep[other] = clock
                elif current.missing(clock) is not None:
                    dep[other] = current.merged(clock)
        return advanced


def _lockstep(ops: List[tuple], tally: Counter) -> None:
    """Drive the shipped layer and the full-merge reference through the
    same ops: same deliveries and hold-back after every arrival, and a
    table entry differs only by what its destination already delivered."""
    fast, full = CausalOrdering(), _FullMergeCausalOrdering()
    got: Dict[str, List[tuple]] = {"fast": [], "full": []}
    in_flight: Dict[int, tuple] = {}
    for op, i, src, dst in ops:
        if op == "send":
            msg = _TrackedMsg(tag=f"m{i}")
            in_flight[i] = (fast.on_send(src, dst, msg), full.on_send(src, dst, msg))
            continue
        for layer, stamped, key in zip((fast, full), in_flight.pop(i), got):
            layer.on_arrival(dst, stamped,
                             lambda m, _k=key: got[_k].append((dst, m.tag)))
        assert got["fast"] == got["full"], f"delivery diverged at m{i}"
        assert held(fast, dst) == held(full, dst)
        mine, theirs = fast._endpoints[dst], full._endpoints[dst]
        assert mine.knowledge == theirs.knowledge
        assert set(mine.dep) <= set(theirs.dep)
        for other, reference in theirs.dep.items():
            shipped = mine.dep.get(other)
            if shipped == reference:
                continue
            tally["differ"] += 1
            # never more than the reference; the rest already delivered
            assert shipped is None or reference.dominates(shipped)
            endpoint = fast._endpoints.get(other)
            delivered = endpoint.knowledge if endpoint else VectorClock()
            for sender, seq in reference.heads:
                assert ((shipped is not None and shipped.get(sender) >= seq)
                        or delivered.get(sender) >= seq), (
                    f"{dst} lost head {(sender, seq)} of its entry for {other}")
    assert len(got["fast"]) == sum(op == "send" for op, *_ in ops)


def test_novelty_skip_matches_the_full_merge_in_lockstep():
    tally: Counter = Counter()
    for seed in range(20):
        sends = _random_traffic(seed, n_nodes=6, n_messages=120)
        _lockstep(_ops(sends, replay=False), tally)
        _lockstep(_ops(sends, replay=True), tally)
    for sends in (_random_traffic(148, n_nodes=148, n_messages=1500),
                  _city_traffic(12, side=12, hubs=4, n_messages=2500),
                  _random_traffic(2, n_nodes=2, n_messages=200)):  # half self-sends
        _lockstep(_ops(sends, replay=True), tally)
    for seed in range(10):
        _lockstep(_interleaved_ops(seed, n_nodes=5, n_messages=200), tally)
    assert tally["differ"] > 0            # the tables do differ, vacuously


def test_causal_layer_op_counts_on_a_pinned_148_node_plan(monkeypatch):
    # Comparing component by component, a delivery costs (table entries
    # compared) x (components per clock) probes: ~1 800 on this plan,
    # ~12 700 on sim-city.  From heads it is (entries compared) x (heads
    # per clock), and entries the receiver already knows cost one probe
    # per head to skip.
    sends = _random_traffic(148, n_nodes=148, n_messages=1500)
    calls: Counter = Counter()
    real = {name: getattr(VectorClock, name) for name in ("missing", "dominates")}
    real_park, real_commit = CausalOrdering._park, CausalOrdering._commit
    real_send = CausalOrdering.on_send

    def missing(self: VectorClock, other: VectorClock):
        calls["missing"] += 1
        calls["probes"] += len(other.heads)      # an upper bound
        return real["missing"](self, other)

    def dominates(self: VectorClock, other: VectorClock) -> bool:
        calls["dominates"] += 1
        return real["dominates"](self, other)

    def park(self, *args) -> None:
        calls["parked"] += 1
        real_park(self, *args)

    def on_send(self, src: NodeId, dst: NodeId, message: Message) -> StampedMessage:
        stamped = real_send(self, src, dst, message)
        calls["shipped"] += len(stamped.constraints)
        return stamped

    def commit(endpoint, node: NodeId, stamped: StampedMessage) -> List[str]:
        # _commit probes inline, past missing(): per entry it reads, at
        # most one probe per head for novelty, then for adopt and keep
        # unless the receiver already knew the entry.
        known = endpoint.knowledge
        for other, clock in stamped.constraints.items():
            current = endpoint.dep.get(other)
            if current is not clock:
                calls["probes"] += len(clock.heads)
                if current is not None and any(
                        known.get(s) < seq for s, seq in clock.heads):
                    calls["probes"] += len(current.heads) + len(clock.heads)
        return real_commit(endpoint, node, stamped)

    monkeypatch.setattr(VectorClock, "missing", missing)
    monkeypatch.setattr(VectorClock, "dominates", dominates)
    monkeypatch.setattr(CausalOrdering, "_park", park)
    monkeypatch.setattr(CausalOrdering, "_commit", staticmethod(commit))
    monkeypatch.setattr(CausalOrdering, "on_send", on_send)
    assert len(_replay(CausalOrdering(), sends)) == 1500
    # The only component-wise comparison left is _park's sanity check,
    # once per message held back; deliveries and table merges make none.
    assert calls["parked"] > 0
    assert calls["dominates"] == calls["parked"]
    assert calls["shipped"] >= 50 * 1500         # the tables are not empty
    assert calls["probes"] < 2 * 148 * 1500      # < 2N per delivered message


# -- the accounting path: resolved once, probed per message -------------------


def test_label_sets_and_message_layouts_are_resolved_once(monkeypatch):
    """Over a small lossy city the normalising slow path of ``labels()``
    runs once per child created — never for a label set that exists —
    and ``dataclasses.fields`` once per message class sized, however
    many messages are counted."""
    calls: Counter = Counter()
    fields_of: Counter = Counter()
    sized: Counter = Counter()
    real_child, real_fields = MetricFamily._child, message_mod.fields
    real_labels, real_size = CounterFamily.labels, Message.size_bytes

    def child(self: MetricFamily, raw: tuple) -> object:
        before = len(self.children)
        made = real_child(self, raw)
        calls["slow"] += 1
        calls["created"] += len(self.children) - before
        return made

    def labels(self: CounterFamily, *values: str) -> object:
        calls["lookups"] += 1
        return real_labels(self, *values)

    def fields(class_or_instance: object) -> tuple:
        cls = (class_or_instance if isinstance(class_or_instance, type)
               else type(class_or_instance))
        fields_of[cls] += 1
        return real_fields(class_or_instance)

    def size_bytes(self: Message) -> int:
        sized[type(self)] += 1
        return real_size(self)

    monkeypatch.setattr(MetricFamily, "_child", child)
    monkeypatch.setattr(CounterFamily, "labels", labels)
    monkeypatch.setattr(message_mod, "fields", fields)
    monkeypatch.setattr(Message, "size_bytes", size_bytes)
    message_mod.layout.cache_clear()

    preset = bench_mod.BenchPreset(name="tiny", citizens=60, grid=3,
                                   duration=40.0)
    config = replace(bench_mod.build_config(preset), wired_faults=WiredFaultSpec(
        loss=0.10, duplication=0.02, reorder=0.05))
    world, _ = bench_mod.run_scenario(preset, config)

    assert world.sim.events_executed == 5787           # the world is pinned
    assert (calls["lookups"], calls["slow"], calls["created"]) == (
        17164, 639, 639)
    assert (len(sized), sum(sized.values())) == (16, 3016)
    assert fields_of == Counter(dict.fromkeys(sized, 1))
