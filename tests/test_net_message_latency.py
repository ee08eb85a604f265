"""Tests for message base class and latency models."""

from __future__ import annotations

import dataclasses
import enum
import random

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
    NormalLatency,
    UniformLatency,
)
from repro.net.message import (
    HEADER_BYTES,
    PER_FIELD_BYTES,
    Message,
    _payload_size,
    layout,
)
from repro.types import NodeId, ProxyId, ProxyRef, RequestId
from tests.test_live_codec import all_kinds, sample_message


def test_msg_ids_unique_and_increasing():
    a = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r1"), service="s")
    b = RequestMsg(mh=NodeId("mh:x"), request_id=RequestId("r2"), service="s")
    assert b.msg_id > a.msg_id


def test_registry_contains_protocol_kinds():
    registry = Message.registry()
    for kind in ("request", "ack", "greet", "dereg", "deregack",
                 "update_currentloc", "result_forward", "ack_forward",
                 "del_pref_notice", "server_request", "server_result"):
        assert kind in registry, kind


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


@pytest.mark.parametrize("value", _EDGE_VALUES, ids=repr)
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
    assert model.mean == 0.5
    with pytest.raises(ConfigError):
        ConstantLatency(-1)


def test_uniform_latency_bounds_and_mean():
    model = UniformLatency(0.1, 0.3)
    rng = random.Random(1)
    samples = [model.sample(rng) for _ in range(200)]
    assert all(0.1 <= s <= 0.3 for s in samples)
    assert model.mean == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        UniformLatency(0.3, 0.1)


def test_exponential_latency_floor_and_mean():
    model = ExponentialLatency(scale=0.1, floor=0.05)
    rng = random.Random(2)
    samples = [model.sample(rng) for _ in range(500)]
    assert all(s >= 0.05 for s in samples)
    assert model.mean == pytest.approx(0.15)
    assert sum(samples) / len(samples) == pytest.approx(0.15, rel=0.2)


def test_exponential_zero_scale_is_constant():
    model = ExponentialLatency(scale=0.0, floor=0.02)
    assert model.sample(random.Random(0)) == 0.02


def test_normal_latency_truncated():
    model = NormalLatency(mean=0.01, stddev=0.05, floor=0.001)
    rng = random.Random(3)
    samples = [model.sample(rng) for _ in range(300)]
    assert all(s >= 0.001 for s in samples)
