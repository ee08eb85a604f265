"""Structured trace recording.

Protocol entities emit :class:`TraceRecord` rows through a shared
:class:`TraceRecorder`.  The analysis layer consumes traces to extract
message-sequence charts (Figures 3 and 4 of the paper) and to verify
protocol invariants (delivery semantics, causal ordering, proxy
uniqueness).

Record kinds used by the library (``send``/``recv`` and the fabric kinds
carry ``net``: ``wired``, ``wireless`` or ``local``):

* messages — ``send`` ``recv`` ``drop`` ``wireless_drop`` ``wireless_delay``
  ``wired_drop`` ``wired_dup`` ``wired_retx`` ``delivery_failed``
* mobile hosts — ``request`` ``deliver`` ``migrate`` ``activate``
  ``deactivate`` ``join`` ``leave`` ``mh_doze`` ``mh_wake`` ``mh_crash``
  ``mh_recover``
* proxies — ``proxy_create`` ``proxy_delete`` ``proxy_move`` ``proxy_adopt``
  ``proxy_admit`` ``proxy_result`` ``proxy_ack`` ``retransmit`` ``custody_expired``
* stations — ``register`` ``deregister`` ``handoff_start`` ``handoff_out``
  ``handoff_done`` ``ack_ignored`` ``wireless_redelivery`` ``mss_crash`` ``mss_restart``

Sink contract: :meth:`TraceRecorder.add_sink` subscribes an online consumer
(the oracle in :mod:`repro.verify`, a span builder) to every kept record or
to the kept records of given kinds; each record is pushed, as it is
produced, to the sinks of its kind in registration order.  All sinks of
one row get the same :class:`TraceRecord`; the recorder does not keep it.
:meth:`TraceRecorder.dispatch` is that routing alone, for rows not to keep.

Storage: a kept row is its time, its node, an interned shape ``(kind,
field names in insertion order)`` and an offset into one flat list that
holds every row's field values back to back, so a row costs a few
references and no object of its own, and adds nothing the cyclic
collector tracks.  Reads rebuild the row: :class:`TraceRecord` views, or
tuples from :meth:`TraceRecorder.rows`, each with a fresh ``fields`` dict
in the recorded key order.
"""

from __future__ import annotations

from array import array
from itertools import starmap
from typing import Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

Sink = Callable[["TraceRecord"], None]
Shape = Tuple[str, Tuple[str, ...]]   # (kind, field names in insertion order)


class TraceRecord:
    """One structured trace row; never mutated once recorded."""

    __slots__ = ("time", "kind", "node", "fields")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, time: float, kind: str, node: str,
                 fields: Optional[Dict[str, Any]] = None) -> None:
        self.time, self.kind, self.node = time, kind, node
        self.fields: Dict[str, Any] = {} if fields is None else fields

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecord):
            return NotImplemented
        return ((self.time, self.kind, self.node, self.fields)
                == (other.time, other.kind, other.node, other.fields))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.time:10.4f}] {self.kind:<14} {self.node:<10} {kv}"


class TraceRecorder:
    """Collects trace records; optionally filters by kind.

    Recording everything in large sweeps is wasteful, so a recorder can be
    created with ``enabled=False`` or with a ``kinds`` whitelist.  Rows
    rejected by either filter are not kept, not pushed to sinks, and not
    counted: ``counts[k]`` is always the number of kept rows of kind ``k``.

    Hot-path contract: call :meth:`wants` first when building the record's
    fields is itself costly (a ``describe()`` string, say), so a row that
    will not be kept costs no more than that test::

        if recorder.wants("send"):
            recorder.record(now, "send", node, detail=message.describe())
    """

    def __init__(
        self,
        enabled: bool = True,
        kinds: Optional[Iterable[str]] = None,
        sink: Optional[Sink] = None,
    ) -> None:
        self.enabled = enabled
        self._kinds = set(kinds) if kinds is not None else None
        # The kept rows: row i is _time[i], _node[i], _shape[i] = (kind,
        # field names) and the values _values[_offset[i]:] of those names.
        # An unsigned-int offset bounds a trace at 2**32 values, whose
        # references alone would take 32 GiB.
        self._time: List[float] = []
        self._node: List[str] = []
        self._shape: List[Shape] = []
        self._offset = array("I")
        self._values: List[Any] = []
        self._shapes: Dict[Shape, Shape] = {}   # each distinct shape, interned
        self._sinks: List[Tuple[Sink, Optional[FrozenSet[str]]]] = []
        self._routes: Dict[str, Tuple[Sink, ...]] = {}  # kind -> its sinks, built on first use
        if sink is not None:
            self.add_sink(sink)
        self.counts: Dict[str, int] = {}

    def add_sink(self, sink: Sink, kinds: Optional[Iterable[str]] = None) -> None:
        """Subscribe *sink* to the kept records of *kinds* (all when None)."""
        self._sinks.append((sink, None if kinds is None else frozenset(kinds)))
        self._routes.clear()

    def remove_sink(self, sink: Sink) -> None:
        """Unsubscribe a previously added sink (no-op when absent)."""
        for entry in self._sinks:
            if entry[0] == sink:
                self._sinks.remove(entry)
                break
        self._routes.clear()

    def wants(self, kind: str) -> bool:
        """True when a record of *kind* would be kept by :meth:`record`.

        The fast path for hot call sites: skip building record fields
        (and ``describe()`` strings) entirely when nothing will be kept.
        """
        return self.enabled and (self._kinds is None or kind in self._kinds)

    def record(self, time: float, kind: str, node: str, **fields: Any) -> None:
        """Record one row (cheap no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self._kinds is not None and kind not in self._kinds:
            return
        self.counts[kind] = self.counts.get(kind, 0) + 1
        shape = (kind, tuple(fields))
        self._time.append(time)
        self._node.append(node)
        self._shape.append(self._shapes.setdefault(shape, shape))
        self._offset.append(len(self._values))
        self._values.extend(fields.values())
        self.dispatch(time, kind, node, fields)

    def dispatch(self, time: float, kind: str, node: str,
                 fields: Dict[str, Any]) -> None:
        """Push one row to its kind's sinks; neither keep nor count it."""
        sinks = self._routes.get(kind)
        if sinks is None:
            sinks = self._routes[kind] = tuple(
                sink for sink, kinds in self._sinks if kinds is None or kind in kinds)
        if sinks:
            rec = TraceRecord(time, kind, node, fields)
            for sink in sinks:
                sink(rec)

    @property
    def records(self) -> List[TraceRecord]:
        """A new list of views of the kept rows (equal to, but not the
        objects the sinks got)."""
        return list(self)

    def rows(self, start: Optional[int] = None, stop: Optional[int] = None,
             ) -> Iterator[Tuple[float, str, str, Dict[str, Any]]]:
        """``(time, kind, node, fields)`` of the kept rows ``[start:stop]``,
        each with a fresh ``fields`` dict."""
        span, values = slice(start, stop), self._values
        return ((time, kind, node, dict(zip(names, values[at:at + len(names)])))
                for time, node, (kind, names), at in zip(
                    self._time[span], self._node[span], self._shape[span],
                    self._offset[span]))

    def __len__(self) -> int:
        return len(self._time)

    def __iter__(self) -> Iterator[TraceRecord]:
        return starmap(TraceRecord, self.rows())
