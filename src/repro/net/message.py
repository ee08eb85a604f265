"""Message base class and registry.

Concrete protocol messages (RDP control and data messages, application
payloads) subclass :class:`Message`.  Each subclass declares a ``kind``
string used in traces, metrics and message-sequence charts.

Sizes are modelled, not marshalled: :meth:`Message.size_bytes` returns a
deterministic estimate (fixed header plus per-field costs) so experiments
such as AN7 (hand-off state transfer cost) can compare byte counts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple, Type

from ..types import NodeId

HEADER_BYTES = 40
PER_FIELD_BYTES = 8


#: Exact-type sizes of the scalar values, probed ahead of the ladder
#: (which sizes what can be subclassed: an ``IntEnum`` member is 8;
#: ``None`` and ``bool`` cannot, so they are decided here alone).
_SCALAR_BYTES: Dict[type, int] = {type(None): 0, bool: 1, int: 8, float: 8}


def _payload_size(value: Any) -> int:
    """Rough serialized size of one message field."""
    kind = type(value)
    if kind is str:
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    size = _SCALAR_BYTES.get(kind)
    if size is not None:
        return size
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(_payload_size(v) for v in value) + PER_FIELD_BYTES
    if isinstance(value, dict):
        return sum(_payload_size(k) + _payload_size(v) for k, v in value.items())
    return PER_FIELD_BYTES


@dataclass(slots=True, kw_only=True)
class Message:
    """Base class for every simulated message.

    ``src``/``dst`` are filled in by the network when the message is sent.
    ``msg_id`` names the message in trace rows (pairing a send with its
    receive): 0 until the message is first sent, then stamped once from
    the world's :class:`~repro.engine.Ids` and kept across re-sends,
    retransmissions and redeliveries; a decoded live message keeps its
    sender's.  Nothing deduplicates on it — links use frame sequence
    numbers, the mobile host delivery and request ids.

    ``request_field`` names the field that holds the id of the client
    request the message is about, on the kinds that carry one; every
    trace row about such a message records that id as ``request_id``.
    """

    kind: ClassVar[str] = "message"
    request_field: ClassVar[Optional[str]] = None

    msg_id: int = 0
    src: Optional[NodeId] = None
    dst: Optional[NodeId] = None

    _registry: ClassVar[Dict[str, Type["Message"]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # No zero-arg super() here: @dataclass(slots=True) rebuilds every
        # subclass, which breaks the __class__ cell zero-arg super relies
        # on.  Message's base is object, so there is nothing to chain to.
        kind = cls.__dict__.get("kind")
        if kind is not None:
            # The slots rebuild registers each class twice; the second,
            # slotted class object replaces the first.  Any other class
            # claiming a registered kind would conflate the two in traces
            # and kind-keyed dispatch.
            known = Message._registry.get(kind)
            if known is not None and (known.__module__, known.__qualname__) \
                    != (cls.__module__, cls.__qualname__):
                raise TypeError(
                    f"message kind {kind!r} of {cls.__module__}."
                    f"{cls.__qualname__} is already registered to "
                    f"{known.__module__}.{known.__qualname__}")
            Message._registry[kind] = cls

    @classmethod
    def registry(cls) -> Mapping[str, Type["Message"]]:
        """Mapping of kind string to message class (a read-only view)."""
        return MappingProxyType(cls._registry)

    def size_bytes(self) -> int:
        """Deterministic modelled wire size."""
        sized = layout(type(self))[1]
        total = HEADER_BYTES + PER_FIELD_BYTES * len(sized)
        for name in sized:
            total += _payload_size(getattr(self, name))
        return total

    def describe(self) -> str:
        """Short human-readable form used in sequence charts."""
        return self.kind

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} #{self.msg_id} "
            f"{self.src}->{self.dst} {self.describe()}>"
        )


@functools.cache
def layout(cls: Type[Message]) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Field names of message class *cls*, resolved once per class: all
    of them (what the live codec walks) and the sized subset — every
    field but the envelope's ``msg_id``/``src``/``dst`` (what
    :meth:`Message.size_bytes` walks)."""
    names = tuple(f.name for f in fields(cls))
    return names, tuple(n for n in names if n not in ("msg_id", "src", "dst"))
