"""Pinned-op-count loops over layers too small to read off a workload.

Each loop calls public functions of one layer a fixed number of times
and reports nanoseconds per operation (median of :data:`ROUNDS` rounds,
each on fresh state).  Inputs are generated from fixed seeds, so every
round does exactly the same work on every commit that keeps the API.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.core.protocol import (
    AckMsg,
    RequestMsg,
    ResultForwardMsg,
    ServerRequestMsg,
    ServerResultMsg,
    WirelessResultMsg,
)
from repro.live.codec import (
    decode_envelope,
    encode_envelope,
    message_from_obj,
    message_to_obj,
)
from repro.net.causal import CausalOrdering
from repro.net.latency import ConstantLatency
from repro.net.message import Message
from repro.net.monitor import NetworkMonitor
from repro.net.reliable import AckRanges
from repro.net.wired import WiredNetwork
from repro.sim import Simulator, TraceRecorder
from repro.types import NodeId, ProxyId, ProxyRef, RequestId, mh_id, mss_id

ROUNDS = 5

_MH = mh_id("citizen17")
_RID = RequestId("citizen17:r42")
_REF = ProxyRef(mss=mss_id("s3"), proxy_id=ProxyId("p1007"))
_PAYLOAD = {"op": "query", "region": "c3_4/r0"}
_RESULT = {"region": "c3_4/r0", "speed": 37.5, "density": 0.42, "version": 9}


def hot_path_messages() -> List[Message]:
    """One of each message kind a request's round trip puts on the wire
    (ids pinned, so the encoded sizes never depend on what ran before)."""
    messages = [
        RequestMsg(mh=_MH, request_id=_RID, service="tis.tis0",
                   payload=_PAYLOAD),
        ServerRequestMsg(request_id=_RID, service="tis.tis0",
                         payload=_PAYLOAD, reply_to=_REF),
        ServerResultMsg(request_id=_RID, proxy_id=_REF.proxy_id,
                        payload=_RESULT),
        ResultForwardMsg(mh=_MH, proxy_ref=_REF, request_id=_RID,
                         delivery_id=7, payload=_RESULT, del_pref=True),
        WirelessResultMsg(mh=_MH, request_id=_RID, delivery_id=7,
                          payload=_RESULT),
        AckMsg(mh=_MH, request_id=_RID, delivery_id=7),
    ]
    for i, message in enumerate(messages):
        message.msg_id = 1_000_000 + i
    return messages


def _envelope(message: Message) -> Dict[str, Any]:
    return {"t": "msg", "seq": 12345, "src": "mss:s3", "dst": "mss:s1",
            "m": message_to_obj(message)}


class _Sink:
    """A wired node that swallows what it is sent."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id

    def on_wired_message(self, message: Message) -> None:
        pass


# Each loop: () -> (operations done, a callable doing them on fresh state).
Loop = Callable[[], Tuple[int, Callable[[], None]]]


def _kernel() -> Tuple[int, Callable[[], None]]:
    n = 10_000
    delays = [random.Random(1).random() for _ in range(n)]

    def run() -> None:
        sim = Simulator()
        noop = int
        for delay in delays:
            sim.schedule(delay, noop)
        sim.run()
    return n, run


def _causal(nodes: int, n: int) -> Loop:
    def loop() -> Tuple[int, Callable[[], None]]:
        rng = random.Random(nodes)
        ids = [NodeId(f"n{i}") for i in range(nodes)]
        plan = [tuple(rng.sample(ids, 2)) for _ in range(n)]
        message = AckMsg(mh=_MH, request_id=_RID, delivery_id=1)

        def run() -> None:
            layer = CausalOrdering()
            deliver = lambda _m: None
            for src, dst in plan:
                layer.on_arrival(dst, layer.on_send(src, dst, message),
                                 deliver)
        return n, run
    return loop


def _ack_ranges() -> Tuple[int, Callable[[], None]]:
    n = 20_000
    rng = random.Random(2)
    seqs = list(range(1, n + 1))
    for i in range(0, n - 8, 8):        # reorder inside windows of eight
        window = seqs[i:i + 8]
        rng.shuffle(window)
        seqs[i:i + 8] = window

    def run() -> None:
        add = AckRanges().add
        for seq in seqs:
            add(seq)
    return n, run


def _reliable() -> Tuple[int, Callable[[], None]]:
    n = 1_500
    a, b = NodeId("mss:a"), NodeId("mss:b")
    messages = [AckMsg(mh=_MH, request_id=_RID, delivery_id=i)
                for i in range(n)]

    def run() -> None:
        sim = Simulator()
        net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                           ordering="raw", reliable=True)
        net.attach(_Sink(a))
        net.attach(_Sink(b))
        for i, message in enumerate(messages):
            sim.schedule(i * 0.001, net.send, a, b, message)
        sim.run()
    return n, run


def _monitor() -> Tuple[int, Callable[[], None]]:
    n = 10_000
    messages = hot_path_messages()
    for message in messages:
        message.src = NodeId("mss:s3")

    def run() -> None:
        on_send = NetworkMonitor().on_send
        for i in range(n):
            on_send("wired", messages[i % 6])
    return n, run


def _wants() -> Tuple[int, Callable[[], None]]:
    n = 100_000

    def run() -> None:
        wants = TraceRecorder(enabled=False).wants
        for _ in range(n):
            wants("send")
    return n, run


def _record() -> Tuple[int, Callable[[], None]]:
    n = 10_000

    def run() -> None:
        record = TraceRecorder().record
        for i in range(n):
            record(0.001 * i, "send", "mss:s3", net="wired", msg="ack",
                   msg_id=i, dst="mss:s1", detail="ack(citizen17:r42)")
    return n, run


def _encode() -> Tuple[int, Callable[[], None]]:
    n = 3_000
    messages = hot_path_messages()

    def run() -> None:
        for i in range(n):
            encode_envelope(_envelope(messages[i % 6]))
    return n, run


def _decode() -> Tuple[int, Callable[[], None]]:
    n = 3_000
    frames = [encode_envelope(_envelope(m)) for m in hot_path_messages()]

    def run() -> None:
        for i in range(n):
            message_from_obj(decode_envelope(frames[i % 6])["m"])
    return n, run


LOOPS: Dict[str, Loop] = {
    "sim.kernel.schedule_run_ns_per_op": _kernel,
    "net.causal.send_arrive_20_ns_per_op": _causal(20, 2_000),
    "net.causal.send_arrive_148_ns_per_op": _causal(148, 1_000),
    "net.reliable.ackranges_add_ns_per_op": _ack_ranges,
    "net.reliable.send_deliver_ns_per_op": _reliable,
    "obs.metrics.on_send_ns_per_op": _monitor,
    "obs.tracing.wants_ns_per_op": _wants,
    "obs.tracing.record_ns_per_op": _record,
    "live.codec.encode_ns_per_op": _encode,
    "live.codec.decode_ns_per_op": _decode,
}


def run_micro() -> Dict[str, float]:
    """Every loop's ns/op, plus the codec's mean frame size in bytes."""
    out: Dict[str, float] = {}
    for name, loop in LOOPS.items():
        ops, run = loop()
        rounds = []
        for _ in range(ROUNDS):
            started = time.perf_counter()
            run()
            rounds.append(time.perf_counter() - started)
        out[name] = statistics.median(rounds) * 1e9 / ops
    frames = [encode_envelope(_envelope(m)) for m in hot_path_messages()]
    out["live.codec.bytes_per_msg"] = sum(map(len, frames)) / len(frames)
    return out


def codec_by_kind(ops: int = 2_000) -> Dict[str, Dict[str, float]]:
    """Per-kind encode/decode ns/op and frame bytes (``micro`` mode)."""
    out: Dict[str, Dict[str, float]] = {}
    for message in hot_path_messages():
        frame = encode_envelope(_envelope(message))
        started = time.perf_counter()
        for _ in range(ops):
            encode_envelope(_envelope(message))
        middle = time.perf_counter()
        for _ in range(ops):
            message_from_obj(decode_envelope(frame)["m"])
        ended = time.perf_counter()
        out[message.kind] = {
            "encode_ns_per_op": (middle - started) * 1e9 / ops,
            "decode_ns_per_op": (ended - middle) * 1e9 / ops,
            "bytes": float(len(frame)),
        }
    return out
