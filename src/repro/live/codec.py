"""Deterministic wire codec for protocol messages.

The simulator passes :class:`~repro.net.message.Message` objects around
by reference; the live backend must put them on a UDP wire.  The format
is tagged JSON::

    {"k": "<kind>", "f": {"msg_id": 7, "src": "mh:h0", ...}}

* ``k`` is the message's ``kind`` string, resolved against
  ``Message.registry()`` on decode — the registry the trace/chart tooling
  already keys on, so the wire and the traces speak the same vocabulary.
* ``f`` holds every dataclass field (``msg_id``/``src``/``dst``
  included: ids must survive the hop so the merged trace can pair a send
  in one process with its recv in another).
* Protocol value types that JSON cannot express natively ride in
  single-key tagged wrappers: :class:`~repro.types.ProxyRef` as
  ``{"__pref__": [mss, proxy_id]}``,
  :class:`~repro.core.protocol.PrefPayload` as
  ``{"__prefpayload__": [ref, rkpr]}``, and tuples as
  ``{"__tuple__": [...]}`` (greet candidate lists stay tuples
  round-trip).

Encoding is byte-stable: sorted keys, compact separators, UTF-8.  Two
processes encoding the same message produce the same bytes, which is
what the golden fixture in ``tests/data/wire_golden.json`` pins down.

Payloads are restricted to JSON-expressible values (plus the tagged
types above); anything else raises :class:`CodecError` at send time
rather than corrupting silently.

Wired messages travel in the reliable link's
:class:`~repro.net.reliable.Frame` units, one frame per datagram
(:func:`frame_to_envelope` / :func:`frame_from_envelope`)::

    {"t": "msg", "seq": 9, "base": 7, "src": ..., "dst": ..., "m": [<message>, ...]}
    {"t": "ack", "seq": 9, "cum": 6, "sacks": [[8, 9]], "src": ..., "dst": ...}

``m`` is the frame's batch, in send order; a link ack — one per data
frame — is :class:`~repro.net.reliable.LinkAckMsg`'s three fields laid
flat, not sent through the reflective message codec above.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from ..core import protocol as _protocol  # noqa: F401 - fills the registry
from ..core.protocol import PrefPayload
from ..errors import ProtocolError
from ..net.causal import StampedMessage
from ..net.message import Message, layout
from ..net.reliable import Frame, LinkAckMsg
from ..net.vectorclock import VectorClock
from ..types import NodeId, ProxyId, ProxyRef

_PREF = "__pref__"
_PREFPAYLOAD = "__prefpayload__"
_TUPLE = "__tuple__"
_TAGS = (_PREF, _PREFPAYLOAD, _TUPLE)


class CodecError(ProtocolError):
    """A value that cannot cross the live wire, or a corrupt frame."""


def _encode_value(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, ProxyRef):
        return {_PREF: [value.mss, value.proxy_id]}
    if isinstance(value, PrefPayload):
        return {_PREFPAYLOAD: [_encode_value(value.ref), value.rkpr]}
    if isinstance(value, tuple):
        return {_TUPLE: [_encode_value(item) for item in value]}
    if isinstance(value, list):
        return [_encode_value(item) for item in value]
    if isinstance(value, dict):
        out: Dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"dict key {key!r} is not a string; only string-keyed "
                    f"dicts cross the live wire")
            if key in _TAGS:
                raise CodecError(
                    f"dict key {key!r} collides with a codec tag")
            out[key] = _encode_value(item)
        return out
    raise CodecError(
        f"value {value!r} of type {type(value).__name__} cannot cross the "
        f"live wire (JSON-expressible payloads only)")


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if len(value) == 1:
            if _PREF in value:
                mss, proxy_id = value[_PREF]
                return ProxyRef(mss=NodeId(mss), proxy_id=ProxyId(proxy_id))
            if _PREFPAYLOAD in value:
                ref, rkpr = value[_PREFPAYLOAD]
                return PrefPayload(ref=_decode_value(ref), rkpr=rkpr)
            if _TUPLE in value:
                return tuple(_decode_value(item) for item in value[_TUPLE])
        return {key: _decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_value(item) for item in value]
    return value


def message_to_obj(message: Message) -> Dict[str, Any]:
    """One message as a JSON-expressible dict (the ``"m"`` envelope slot)."""
    cls = type(message)
    if Message.registry().get(cls.kind) is not cls:
        raise CodecError(
            f"{cls.__name__} (kind {cls.kind!r}) is not wire-registered")
    return {"k": cls.kind,
            "f": {name: _encode_value(getattr(message, name))
                  for name in layout(cls)[0]}}


def message_from_obj(obj: Any) -> Message:
    """Rebuild a message from :func:`message_to_obj` output."""
    if not isinstance(obj, dict) or "k" not in obj or "f" not in obj:
        raise CodecError(f"malformed message object: {obj!r}")
    cls = Message.registry().get(obj["k"])
    if cls is None:
        raise CodecError(f"unknown message kind {obj['k']!r}")
    raw = obj["f"]
    if not isinstance(raw, dict):
        raise CodecError(f"malformed field block: {raw!r}")
    kwargs = {name: _decode_value(value) for name, value in raw.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise CodecError(f"cannot rebuild {obj['k']!r}: {exc}") from None


#: The byte-stable encoder, built once (``json.dumps`` builds one per call).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_message(message: Message) -> bytes:
    """Byte-stable encoding (sorted keys, compact separators, UTF-8)."""
    return _ENCODER.encode(message_to_obj(message)).encode("utf-8")


def decode_message(data: bytes) -> Message:
    """Inverse of :func:`encode_message`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"corrupt wire frame: {exc}") from None
    return message_from_obj(obj)


#: The stamp of every live frame.  No ordering layer runs on the live
#: wire yet (ROADMAP: vector clocks in the envelope), so the stamp slot
#: is never read; one shared instance, built at import, keeps
#: ``net/causal.py`` and ``net/vectorclock.py`` off the live path.
_NO_STAMP = VectorClock()
_NO_CONSTRAINTS: Dict[str, VectorClock] = {}


def unstamped(message: Message) -> StampedMessage:
    """*message* as the link transports it on the live wire."""
    return StampedMessage(message, _NO_STAMP, _NO_CONSTRAINTS)


def frame_to_envelope(frame: Frame) -> Dict[str, Any]:
    """One link frame as the envelope of its datagram."""
    ack = frame.payload
    if isinstance(ack, LinkAckMsg):
        return {"t": "ack", "seq": ack.seq, "cum": ack.cum,
                "sacks": ack.sacks, "src": frame.src, "dst": frame.dst}
    return {"t": "msg", "seq": frame.seq, "base": frame.base,
            "src": frame.src, "dst": frame.dst,
            "m": [message_to_obj(m) for m in frame.protocol_messages()]}


def _seq(value: Any) -> int:
    if type(value) is not int or value < 0:
        raise CodecError(f"bad sequence number {value!r}")
    return value


def frame_from_envelope(obj: Dict[str, Any]) -> Frame:
    """Rebuild a link frame from a ``msg`` or ``ack`` envelope.

    Raises :class:`CodecError` for anything :func:`frame_to_envelope`
    cannot have produced — the link's state machine is only ever shown
    frames a peer link could have sent.
    """
    try:
        src, dst, seq = obj["src"], obj["dst"], _seq(obj["seq"])
        if not isinstance(src, str) or not isinstance(dst, str):
            raise CodecError(f"bad frame endpoints {src!r} -> {dst!r}")
        src, dst = NodeId(src), NodeId(dst)
        if obj["t"] == "ack":
            sacks = tuple((_seq(lo), _seq(hi)) for lo, hi in obj["sacks"])
            return Frame(src=src, dst=dst, seq=seq, payload=LinkAckMsg(
                seq=seq, cum=_seq(obj["cum"]), sacks=sacks, src=src, dst=dst))
        base = _seq(obj["base"])
        if not 1 <= base <= seq:
            raise CodecError(f"window base {base} beyond frame {seq}")
        messages = [message_from_obj(m) for m in obj["m"]]
        if not messages or any(isinstance(m, LinkAckMsg) for m in messages):
            raise CodecError(f"bad frame batch of {len(messages)}")
        return Frame(src=src, dst=dst, seq=seq, base=base,
                     batch=tuple(unstamped(m) for m in messages))
    except (KeyError, TypeError, ValueError) as exc:
        raise CodecError(f"malformed frame envelope: {exc!r}") from None


def encode_envelope(obj: Dict[str, Any]) -> bytes:
    """Encode one transport envelope (``msg``/``ack``/``wmsg``/``ctrl``)."""
    return _ENCODER.encode(obj).encode("utf-8")


def decode_envelope(data: bytes) -> Dict[str, Any]:
    """Decode one transport envelope; raises :class:`CodecError`."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CodecError(f"corrupt datagram: {exc}") from None
    if not isinstance(obj, dict) or "t" not in obj:
        raise CodecError(f"malformed envelope: {obj!r}")
    return obj
