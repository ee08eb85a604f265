"""Wire-codec property tests: every message kind crosses the live wire
byte-identically, and the byte format itself is pinned by a golden
fixture (``tests/data/wire_golden.json``) — per message kind, plus the
two envelopes the reliable link's frames travel in.

The sample builder is annotation-driven: it constructs one instance of
every class in ``Message.registry()`` from a fixed value per field type,
so a *new* message kind is covered automatically the moment it is
registered — and the golden test fails loudly if its wire shape was
never pinned (regenerate with
``python tests/test_live_codec.py --regen``).
"""

import json
import pathlib
import sys
from dataclasses import fields

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.core.protocol import PrefPayload  # noqa: E402
from repro.live.codec import (  # noqa: E402
    CodecError,
    decode_envelope,
    encode_envelope,
    frame_from_envelope,
    frame_to_envelope,
    message_from_obj,
    message_to_obj,
    unstamped,
)
from repro.net.message import Message  # noqa: E402
from repro.net.reliable import Frame, LinkAckMsg  # noqa: E402
from repro.types import NodeId, ProxyId, ProxyRef, RequestId  # noqa: E402

GOLDEN_PATH = pathlib.Path(__file__).parent / "data" / "wire_golden.json"

_REF = ProxyRef(mss=NodeId("mss:s1"), proxy_id=ProxyId("px7"))

#: One fixed sample value per field annotation seen in the registry.
_SAMPLES = {
    "NodeId": NodeId("mh:h0"),
    "RequestId": RequestId("h0-r3"),
    "ProxyId": ProxyId("px7"),
    "ProxyRef": _REF,
    "Optional[ProxyRef]": _REF,
    "PrefPayload": PrefPayload(ref=_REF, rkpr=2),
    "int": 7,
    "bool": True,
    "float": 0.75,
    "str": "weather",
    "Any": {"n": 3, "items": [1, 2.5, "x", None, True],
            "pos": {"lat": 1.0, "lon": -2.0}},
    "tuple": (NodeId("mss:s0"), NodeId("mss:s2")),
    "Tuple[Tuple[int, int], ...]": ((1, 2), (4, 4)),
    "Dict[str, Any]": {"level": 0.7, "region": "r1"},
    "Optional[Dict[str, Any]]": {"level": 0.7, "region": "r1"},
}


def sample_message(cls):
    """One deterministic instance of a registered message class."""
    kwargs = {}
    for f in fields(cls):
        if f.name == "msg_id":
            kwargs[f.name] = 41
        elif f.name in ("src", "dst"):
            kwargs[f.name] = NodeId(f"mss:{f.name}")
        else:
            annotation = f.type if isinstance(f.type, str) else f.type.__name__
            if annotation not in _SAMPLES:
                raise AssertionError(
                    f"{cls.__name__}.{f.name}: no sample for field type "
                    f"{annotation!r} — extend _SAMPLES so the codec tests "
                    f"keep covering every registered kind")
            kwargs[f.name] = _SAMPLES[annotation]
    return cls(**kwargs)


def all_kinds():
    """Every protocol kind — excluding ad-hoc Message subclasses other
    test modules register at import time (the live wire only ever
    carries kinds defined inside the ``repro`` package)."""
    return sorted(kind for kind, cls in Message.registry().items()
                  if cls.__module__.startswith("repro."))


def encode(message: Message) -> bytes:
    """A message's bytes as they sit inside a live envelope."""
    return encode_envelope(message_to_obj(message))


def decode(data: bytes) -> Message:
    return message_from_obj(json.loads(data))


@pytest.mark.parametrize("kind", all_kinds())
def test_round_trip_byte_identical(kind):
    """encode → decode → re-encode is the identity on bytes."""
    original = sample_message(Message.registry()[kind])
    data = encode(original)
    decoded = decode(data)
    assert type(decoded) is type(original)
    assert message_to_obj(decoded) == message_to_obj(original)
    assert encode(decoded) == data


@pytest.mark.parametrize("kind", all_kinds())
def test_round_trip_preserves_field_values(kind):
    original = sample_message(Message.registry()[kind])
    decoded = decode(encode(original))
    for f in fields(original):
        assert getattr(decoded, f.name) == getattr(original, f.name), f.name


def test_tuples_survive_as_tuples():
    """Greet candidate lists are tuples and must stay tuples (they are
    compared and sliced as such on the receiving MSS)."""
    cls = Message.registry()["greet"]
    decoded = decode(encode(sample_message(cls)))
    assert isinstance(decoded.old_candidates, tuple)
    assert decoded.old_candidates == (NodeId("mss:s0"), NodeId("mss:s2"))


def test_proxy_ref_and_pref_payload_types():
    cls = Message.registry()["deregack"]
    decoded = decode(encode(sample_message(cls)))
    assert isinstance(decoded.pref, PrefPayload)
    assert isinstance(decoded.pref.ref, ProxyRef)
    assert decoded.pref.ref.mss == NodeId("mss:s1")
    assert decoded.pref.rkpr == 2


def test_encoding_is_deterministic():
    cls = Message.registry()["result_forward"]
    assert encode(sample_message(cls)) == encode(sample_message(cls))


# -- failure modes ----------------------------------------------------------


def test_unknown_kind_rejected():
    with pytest.raises(CodecError):
        message_from_obj({"k": "no_such_kind", "f": {}})


def test_corrupt_bytes_rejected():
    with pytest.raises(CodecError):
        decode_envelope(b"{not json")
    with pytest.raises(CodecError):
        decode_envelope(b"\xff\xfe")


def test_malformed_shapes_rejected():
    with pytest.raises(CodecError):
        message_from_obj(["not", "a", "dict"])
    with pytest.raises(CodecError):
        message_from_obj({"k": "ack"})  # missing field block
    with pytest.raises(CodecError):
        message_from_obj({"k": "ack", "f": {"bogus_field": 1}})


def test_unencodable_payload_rejected_at_send_time():
    cls = Message.registry()["request"]
    msg = sample_message(cls)
    msg.payload = object()
    with pytest.raises(CodecError):
        encode(msg)
    msg.payload = {1: "non-string key"}
    with pytest.raises(CodecError):
        encode(msg)
    msg.payload = {"__tuple__": "tag collision"}
    with pytest.raises(CodecError):
        encode(msg)


def test_envelope_round_trip():
    env = {"t": "msg", "seq": 3, "base": 2, "src": "mss:s0", "dst": "mss:s1",
           "m": [message_to_obj(sample_message(Message.registry()["ack"]))]}
    assert decode_envelope(encode_envelope(env)) == json.loads(
        encode_envelope(env))
    with pytest.raises(CodecError):
        decode_envelope(b"[1,2,3]")  # no "t" key


def sample_frames():
    """The two frame shapes on the live wire: a data frame batching two
    messages, and the link ack that answers it with one SACK block."""
    src, dst = NodeId("mss:s0"), NodeId("mss:s1")
    batch = tuple(unstamped(sample_message(Message.registry()[kind]))
                  for kind in ("ack", "result_forward"))
    ack = LinkAckMsg(msg_id=41, src=dst, dst=src, seq=9, cum=6,
                     sacks=((8, 9),))
    return {"msg": Frame(src=src, dst=dst, seq=9, base=7, batch=batch),
            "ack": Frame(src=dst, dst=src, seq=9, payload=ack)}


@pytest.mark.parametrize("tag", ["msg", "ack"])
def test_frame_envelope_round_trip(tag):
    frame = sample_frames()[tag]
    data = encode_envelope(frame_to_envelope(frame))
    envelope = decode_envelope(data)
    assert envelope["t"] == tag
    decoded = frame_from_envelope(envelope)
    assert (decoded.src, decoded.dst, decoded.seq, decoded.base) == (
        frame.src, frame.dst, frame.seq, frame.base)
    assert encode_envelope(frame_to_envelope(decoded)) == data
    if tag == "ack":
        # Flat fields, not a message object: msg_id does not cross.
        assert set(envelope) == {"t", "seq", "cum", "sacks", "src", "dst"}
        assert (decoded.payload.seq, decoded.payload.cum,
                decoded.payload.sacks) == (9, 6, ((8, 9),))
    else:
        assert [m.kind for m in decoded.protocol_messages()] == [
            "ack", "result_forward"]
    with pytest.raises(CodecError):
        frame_from_envelope({**envelope, "seq": None})


# -- the golden fixture -----------------------------------------------------


def _current_golden():
    golden = {
        kind: encode(
            sample_message(Message.registry()[kind])).decode("utf-8")
        for kind in all_kinds()
    }
    for tag, frame in sample_frames().items():
        golden[f"envelope:{tag}"] = encode_envelope(
            frame_to_envelope(frame)).decode("utf-8")
    return golden


def test_wire_format_matches_golden_fixture():
    """The byte-level wire format is a compatibility surface: changing it
    silently would break mixed-version clusters.  Regenerate consciously
    with ``python tests/test_live_codec.py --regen``."""
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing - run: python {__file__} --regen")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = _current_golden()
    assert set(current) == set(golden), (
        "message registry (plus the two envelopes) and golden fixture "
        "disagree on the set of entries - regenerate the fixture")
    for kind in sorted(current):
        assert current[kind] == golden[kind], (
            f"wire format of {kind!r} changed - if intentional, regenerate "
            f"the fixture")


if __name__ == "__main__":
    if "--regen" in sys.argv:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(_current_golden(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
    else:
        raise SystemExit(pytest.main([__file__, "-q"]))
