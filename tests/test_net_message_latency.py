"""Tests for message base class and latency models."""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import List, Tuple

import pytest

import repro.baselines.itcp_like  # noqa: F401 - fills the registry
import repro.servers.tis  # noqa: F401 - fills the registry
from repro.core.protocol import (
    GreetMsg,
    PrefPayload,
    RequestMsg,
    ResultForwardMsg,
)
from repro.errors import ConfigError
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    UniformLatency,
)
from repro.net.message import (
    HEADER_BYTES,
    PER_FIELD_BYTES,
    Message,
    _payload_size,
    layout,
)
from repro.net.wired import WiredNetwork
from repro.sim import Simulator, TraceRecorder
from repro.types import NodeId, ProxyId, ProxyRef, RequestId
from tests.test_live_codec import all_kinds, sample_message


class _Node:
    def __init__(self, name: str) -> None:
        self.node_id = NodeId(name)

    def on_wired_message(self, message: Message) -> None:
        pass


def _message_id_rows() -> List[Tuple[str, int]]:
    """Two fresh messages and a re-send of the first, on a reliable link
    whose receiver is down for a second (so the frame is retransmitted);
    returns every trace row's ``(kind, msg_id)``."""
    sim = Simulator()
    recorder = TraceRecorder()
    net = WiredNetwork(sim, recorder=recorder, reliable=True)
    a, b = _Node("mss:a"), _Node("mss:b")
    net.attach(a)
    net.attach(b)
    first = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r1"),
                       service="s")
    second = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r2"),
                        service="s")
    assert first.msg_id == second.msg_id == 0  # unset until first sent
    net.set_down(b.node_id)
    net.send(a.node_id, b.node_id, first)
    stamped = first.msg_id
    net.send(a.node_id, b.node_id, second)
    net.send(a.node_id, b.node_id, first)
    assert 0 < stamped < second.msg_id
    assert first.msg_id == stamped  # a re-send keeps its id
    sim.schedule(1.0, net.set_up, b.node_id)
    sim.run()
    return [(r.kind, r.fields["msg_id"]) for r in recorder]


def test_msg_ids_unique_and_increasing():
    rows = _message_id_rows()
    sends = [i for kind, i in rows if kind == "send"]
    assert sends == [sends[0], sends[0] + 1, sends[0]]
    # The link retransmits the frame under the id its first message got.
    retx = {i for kind, i in rows if kind == "wired_retx"}
    assert retx == {sends[0]}
    assert [i for kind, i in rows if kind == "recv"] == sends
    # Ids are the world's: a fresh Simulator hands out the same sequence.
    assert _message_id_rows() == rows


def test_registry_contains_protocol_kinds():
    registry = Message.registry()
    for kind in ("request", "ack", "greet", "dereg", "deregack",
                 "update_currentloc", "result_forward", "ack_forward",
                 "del_pref_notice", "server_request", "server_result"):
        assert kind in registry, kind


def test_a_second_class_reusing_a_kind_fails_at_definition():
    # Two classes of one kind would share trace rows and kind-keyed
    # dispatch, so the registry refuses the second.  (The slots rebuild
    # of every dataclass message re-registers the same class, and every
    # protocol module imported above went through it.)
    with pytest.raises(TypeError, match="'proxy_gone'.*ProxyGoneMsg"):
        class _Impostor(Message):
            kind = "proxy_gone"
    assert Message.registry()["proxy_gone"].__name__ == "ProxyGoneMsg"


def test_size_scales_with_payload():
    small = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r"),
                       service="s", payload="ab")
    large = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r"),
                       service="s", payload="ab" * 500)
    assert large.size_bytes() - small.size_bytes() == 998
    assert small.size_bytes() > HEADER_BYTES


def test_size_handles_structured_payloads():
    msg = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r"), service="s",
                     payload={"op": "query", "items": [1, 2, 3], "flag": True})
    assert msg.size_bytes() > HEADER_BYTES


# -- the size model's fast paths against the formula they replaced ------------


def _reference_payload_size(value):
    """``_payload_size`` as it was before the exact-type table."""
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_reference_payload_size(v) for v in value) + PER_FIELD_BYTES
    if isinstance(value, dict):
        return sum(_reference_payload_size(k) + _reference_payload_size(v)
                   for k, v in value.items())
    return PER_FIELD_BYTES


def _reference_size(message):
    """``Message.size_bytes`` as it was before the per-class layout."""
    total = HEADER_BYTES
    for f in dataclasses.fields(message):
        if f.name in ("msg_id", "src", "dst"):
            continue
        total += PER_FIELD_BYTES + _reference_payload_size(
            getattr(message, f.name))
    return total


class _Colour(enum.IntEnum):
    RED = 3


class _Tagged(str):
    pass


_REF = ProxyRef(mss=NodeId("mss:s0"), proxy_id=ProxyId("px1"))
_EDGE_VALUES = [
    True, 1, False, 0, 2.5, None, _Colour.RED, "plain", _Tagged("tagged"),
    "na\u00efve \u2603 \U0001f600", "", b"\x00\x01\xff", _REF,
    PrefPayload(ref=_REF, rkpr=True), object(), (), [True, 1, "x"],
    {1, 2}, frozenset({"a"}), (NodeId("mss:s0"), _Tagged("t")),
    {"k": (1, {"a": [True, None, "\u00e9"]}), "n": _Colour.RED},
]


def _edge_id(value: object) -> str:
    # A bare object's repr carries its address, so its test id would
    # change from run to run.
    return "object()" if type(value) is object else repr(value)


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=_edge_id)
def test_payload_size_equals_the_ladder_alone(value):
    assert _payload_size(value) == _reference_payload_size(value)
    msg = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r"),
                     service="s", payload=value)
    assert msg.size_bytes() == _reference_size(msg)


#: The two classes that add modelled state on top of the base formula.
_EXTRA = {"deregack": "extra_state_bytes", "proxy_move": "state_bytes"}


@pytest.mark.parametrize("kind", all_kinds())
def test_size_bytes_equals_the_reference_for_every_registered_class(kind):
    message = sample_message(Message.registry()[kind])
    overrides = type(message).size_bytes is not Message.size_bytes
    assert overrides == (kind in _EXTRA)
    extra = getattr(message, _EXTRA[kind]) if overrides else 0
    assert extra > 0 or not overrides
    assert message.size_bytes() == _reference_size(message) + extra
    assert layout(type(message))[0] == tuple(
        f.name for f in dataclasses.fields(message))    # the codec's walk


def test_describe_mentions_flags():
    ref = ProxyRef(mss=NodeId("mss:s0"), proxy_id=ProxyId("px1"))
    fwd = ResultForwardMsg(mh=NodeId("mh:x"), proxy_ref=ref,
                           request_id=RequestId("r"), delivery_id=1,
                           del_pref=True, retransmission=True)
    assert "del-pref" in fwd.describe()
    assert "retr" in fwd.describe()
    greet = GreetMsg(mh=NodeId("mh:x"), old_mss=NodeId("mss:s1"), seq=4)
    assert "mss:s1" in greet.describe()


def test_constant_latency():
    model = ConstantLatency(0.5)
    assert model.sample(random.Random(0)) == 0.5
    with pytest.raises(ConfigError):
        ConstantLatency(-1)


def test_uniform_latency_bounds_and_mean():
    model = UniformLatency(0.1, 0.3)
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(0.1 <= s <= 0.3 for s in samples)
    assert sum(samples) / len(samples) == pytest.approx(0.2, rel=0.1)
    with pytest.raises(ConfigError):
        UniformLatency(0.3, 0.1)


def test_exponential_latency_floor_and_mean():
    model = ExponentialLatency(scale=0.1, floor=0.05)
    rng = random.Random(2)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(s >= 0.05 for s in samples)
    assert sum(samples) / len(samples) == pytest.approx(0.15, rel=0.2)


def test_exponential_zero_scale_is_constant():
    model = ExponentialLatency(scale=0.0, floor=0.02)
    assert model.sample(random.Random(0)) == 0.02


# -- payload size model and registry ---------------------------------------------

@pytest.mark.parametrize("value,expected", [
    (None, 0),
    (True, 1),
    (7, 8),
    (1.5, 8),
    ("abc", 3),
    (b"abcd", 4),
])
def test_payload_size_scalars(value, expected):
    assert _payload_size(value) == expected


def test_payload_size_containers():
    assert _payload_size([1, 2]) == 16 + 8
    assert _payload_size({"k": "vv"}) == 1 + 2


def test_message_registry_is_complete():
    registry = Message.registry()
    # Every protocol kind plus the TIS overlay and ordered-multicast kinds.
    for kind in ("join", "leave", "greet", "registered", "request", "ack",
                 "wireless_result", "dereg", "deregack", "update_currentloc",
                 "forwarded_request", "result_forward", "del_pref_notice",
                 "ack_forward", "create_proxy", "proxy_created", "proxy_gone",
                 "server_request", "server_result", "server_ack",
                 "notification", "subscription_end", "tis_lookup",
                 "tis_lookup_reply", "tis_update", "tis_update_ack",
                 "tis_replicate", "itcp_chased_result"):
        assert kind in registry, kind
