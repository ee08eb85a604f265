"""Delivery-span reconstruction.

A *delivery span* is the life of one client request, reassembled from
trace records: ``request`` at the mobile host, the wireless uplink hop,
the wired forwarding to proxy and server, the proxy's custody (including
retransmissions, result bounces and hand-off overlaps), the terminal
``deliver`` back at the MH, and the closing ``proxy_ack`` when the Ack
reaches the proxy.  Spans answer the paper's Section 5 questions per
request instead of in aggregate: where did this request spend its time
(wireless vs wired vs server vs proxy residency), how many transmission
attempts did it take, and did a hand-off overlap it.  A span also
splits its latency the way the proxy sees it: admission (issue to
``proxy_admit``), service (to ``proxy_result``, the server's reply
reaching the proxy) and delivery (to the terminal ``deliver``), the
segments experiment AN10 sweeps against mobility.

The builder works in two modes:

* **online** — subscribe :meth:`SpanBuilder.on_record` with
  :meth:`~repro.sim.tracing.TraceRecorder.add_sink`; spans grow as the
  simulation runs.  :attr:`SpanBuilder.KINDS` is the record-kind
  whitelist an observe run passes to the recorder so nothing else is
  retained.
* **post-hoc** — feed a saved trace to :meth:`SpanBuilder.from_records`.

Correlation works off the fields the networks record: every
``send``/``recv`` row carries ``net``, ``msg`` (the message kind) and
``msg_id``, and a row about a message that names a request also carries
that ``request_id`` (the message class declares which of its fields
names it, :attr:`~repro.net.message.Message.request_field`; a
notification or subscription end names its subscribe request).
``create_proxy``/``proxy_gone`` declare none, so their (rare) wire time
is not attributed to a named stage — it lands in the proxy-residency
remainder, which is computed as
``latency - wireless - wired - server`` precisely so the four stages
always sum to the whole span.

Time attribution uses the *first paired* hop per (network, message
kind): a pair needs both the ``send`` and the ``recv`` of one
``msg_id``, so attempts that were dropped never pair and the first
successful copy approximates the delivery chain.  Hops after the
terminal ``deliver`` (the Ack path) count toward ``hops`` but not toward
the latency breakdown — span latency is issue-to-delivery, matching the
``request_completion_time`` series the proxy observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..sim.tracing import TraceRecord

#: Stages on the issue-to-delivery chain, per network, in protocol order.
#: Ack-path kinds (``ack``, ``ack_forward``, ``server_ack``) are
#: deliberately absent: they happen after the latency window closes.
_BREAKDOWN_KINDS = frozenset({
    "request", "forwarded_request", "server_request", "server_result",
    "result_forward", "wireless_result", "notification",
})

@dataclass
class Hop:
    """One successfully paired network traversal of a span's message."""

    net: str
    kind: str
    sent_at: float
    received_at: float
    src: str
    dst: str

    @property
    def transit(self) -> float:
        return self.received_at - self.sent_at


@dataclass
class DeliverySpan:
    """One client request, issue to Ack (or wherever it stopped)."""

    request_id: str
    mh: str
    service: str = ""
    issued_at: float = 0.0
    delivered_at: Optional[float] = None
    acked_at: Optional[float] = None
    admitted_at: Optional[float] = None      # first proxy_admit
    result_at_proxy: Optional[float] = None  # first proxy_result
    proxy_node: Optional[str] = None
    hops: List[Hop] = field(default_factory=list)
    retransmits: int = 0
    bounces: int = 0
    drops: int = 0
    deliveries: int = 0
    handoff_overlaps: int = 0
    # Stage attribution (filled by finalize); proxy_time is the
    # remainder so the four stages sum exactly to latency.
    wireless_time: float = 0.0
    wired_time: float = 0.0
    server_time: float = 0.0
    proxy_time: float = 0.0
    # Server processing window markers.
    _srv_req_recv: Optional[float] = None
    _srv_res_send: Optional[float] = None

    @property
    def status(self) -> str:
        if self.acked_at is not None:
            return "acked"
        if self.delivered_at is not None:
            return "delivered"
        return "pending"

    @property
    def terminated(self) -> bool:
        """Closed by the protocol's own terminal event (``proxy_ack``)."""
        return self.acked_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.issued_at

    @property
    def complete(self) -> bool:
        """Admitted, answered at the proxy and delivered."""
        return (self.admitted_at is not None
                and self.result_at_proxy is not None
                and self.delivered_at is not None)

    def segments(self) -> Tuple[float, float, float]:
        """``(admission, service, delivery)``: issue to admission, to the
        result reaching the proxy, to delivery; they sum to the latency.
        All 0 unless the span is :attr:`complete`."""
        if (self.admitted_at is None or self.result_at_proxy is None
                or self.delivered_at is None):
            return 0.0, 0.0, 0.0
        return (self.admitted_at - self.issued_at,
                self.result_at_proxy - self.admitted_at,
                self.delivered_at - self.result_at_proxy)

    def end_time(self) -> Optional[float]:
        """The span's last terminal timestamp, if any."""
        if self.acked_at is not None:
            return self.acked_at
        return self.delivered_at

    def finalize(self, handoffs: List[Tuple[float, float]]) -> None:
        """Compute stage attribution and hand-off overlap counts."""
        latency = self.latency
        window_end = self.delivered_at
        seen: Set[Tuple[str, str]] = set()
        wireless = wired = 0.0
        for hop in self.hops:
            if hop.kind not in _BREAKDOWN_KINDS:
                continue
            if window_end is not None and hop.sent_at > window_end:
                continue
            key = (hop.net, hop.kind)
            if key in seen:
                continue
            seen.add(key)
            if hop.net == "wireless":
                wireless += hop.transit
            elif hop.net == "wired":
                wired += hop.transit
        self.wireless_time = wireless
        self.wired_time = wired
        if self._srv_req_recv is not None and self._srv_res_send is not None:
            self.server_time = max(0.0, self._srv_res_send - self._srv_req_recv)
        if latency is not None:
            self.proxy_time = (latency - self.wireless_time
                               - self.wired_time - self.server_time)
        end = self.end_time()
        overlaps = 0
        for start, done in handoffs:
            if done < self.issued_at:
                continue
            if end is not None and start > end:
                continue
            overlaps += 1
        self.handoff_overlaps = overlaps

    def to_row(self) -> Dict[str, object]:
        """Flat dict for tables and JSON export (deterministic values)."""
        latency = self.latency
        return {
            "request_id": self.request_id,
            "mh": self.mh,
            "service": self.service,
            "status": self.status,
            "issued_at": round(self.issued_at, 6),
            "latency": round(latency, 6) if latency is not None else None,
            "wireless_time": round(self.wireless_time, 6),
            "wired_time": round(self.wired_time, 6),
            "server_time": round(self.server_time, 6),
            "proxy_time": round(self.proxy_time, 6),
            "hops": len(self.hops),
            "retransmits": self.retransmits,
            "bounces": self.bounces,
            "drops": self.drops,
            "handoff_overlaps": self.handoff_overlaps,
        }


@dataclass
class SpanReport:
    """All spans of a run plus the totals the acceptance gate checks."""

    spans: List[DeliverySpan]

    @property
    def issued(self) -> int:
        return len(self.spans)

    @property
    def acked(self) -> int:
        return sum(1 for s in self.spans if s.status == "acked")

    @property
    def delivered_only(self) -> int:
        return sum(1 for s in self.spans if s.status == "delivered")

    @property
    def unterminated(self) -> int:
        return sum(1 for s in self.spans if s.acked_at is None)

    def accounted(self) -> bool:
        """True when every issued request is closed or explicitly listed
        as unterminated — the 100%-accounting acceptance criterion."""
        return self.acked + self.delivered_only + sum(
            1 for s in self.spans if s.status == "pending") == self.issued

    def summary(self) -> Dict[str, object]:
        latencies = sorted(
            s.latency for s in self.spans if s.latency is not None)
        out: Dict[str, object] = {
            "issued": self.issued,
            "acked": self.acked,
            "delivered_unacked": self.delivered_only,
            "unterminated": self.unterminated,
            "retransmit_spans": sum(
                1 for s in self.spans if s.retransmits > 0),
            "bounce_spans": sum(1 for s in self.spans if s.bounces > 0),
            "handoff_overlap_spans": sum(
                1 for s in self.spans if s.handoff_overlaps > 0),
        }
        if latencies:
            total = sum(latencies)
            out["latency"] = {
                "count": len(latencies),
                "mean": round(total / len(latencies), 6),
                "p50": round(latencies[len(latencies) // 2], 6),
                "p95": round(latencies[min(len(latencies) - 1,
                                           int(len(latencies) * 0.95))], 6),
                "max": round(latencies[-1], 6),
            }
        return out


class SpanBuilder:
    """Incrementally reconstruct delivery spans from trace records."""

    #: Record kinds the builder consumes — pass as the recorder's kinds
    #: whitelist so an observe run keeps nothing it doesn't need.
    KINDS = frozenset({
        "request", "send", "recv", "drop", "wired_drop", "wireless_drop",
        "deliver", "proxy_admit", "proxy_result", "proxy_ack", "retransmit",
        "handoff_start", "handoff_done",
    })

    def __init__(self) -> None:
        self._spans: Dict[str, DeliverySpan] = {}
        self._order: List[str] = []
        # (net, msg_id) -> (sent_at, kind, rid, src) awaiting its recv.
        self._pending: Dict[Tuple[str, int], Tuple[float, str, str, str]] = {}
        # Completed hand-off windows per MH: (start, done).
        self._handoffs: Dict[str, List[Tuple[float, float]]] = {}

    # -- record ingestion --------------------------------------------------

    def on_record(self, rec: TraceRecord) -> None:
        """Recorder sink: consume one trace record (any kind)."""
        kind = rec.kind
        if kind == "send":
            self._ingest_send(rec)
        elif kind == "recv":
            self._ingest_recv(rec)
        elif kind == "request":
            self._ingest_request(rec)
        elif kind == "deliver":
            self._ingest_deliver(rec)
        elif kind == "proxy_ack":
            self._ingest_proxy_ack(rec)
        elif kind == "proxy_admit":
            self._ingest_proxy_admit(rec)
        elif kind == "proxy_result":
            self._ingest_proxy_result(rec)
        elif kind == "retransmit":
            self._ingest_retransmit(rec)
        elif kind in ("drop", "wired_drop", "wireless_drop"):
            self._ingest_drop(rec)
        elif kind == "handoff_done":
            self._ingest_handoff_done(rec)
        # handoff_start needs no state: handoff_done carries duration.

    def _span(self, rid: str, mh: str = "?", at: float = 0.0) -> DeliverySpan:
        span = self._spans.get(rid)
        if span is None:
            span = DeliverySpan(request_id=rid, mh=mh, issued_at=at)
            self._spans[rid] = span
            self._order.append(rid)
        return span

    def _ingest_request(self, rec: TraceRecord) -> None:
        rid = str(rec.get("request_id"))
        span = self._spans.get(rid)
        if span is None:
            span = self._span(rid, mh=rec.node, at=rec.time)
            span.service = str(rec.get("service", ""))
        elif span.mh == "?":
            # The span was opened by a network record that beat this
            # request row into the builder (post-hoc partial traces).
            span.mh = rec.node
            span.issued_at = rec.time
            span.service = str(rec.get("service", ""))
        # else: a client retry re-issued the same request id — latency
        # runs from the FIRST issue, so the original row wins.

    def _ingest_send(self, rec: TraceRecord) -> None:
        rid = rec.get("request_id")
        if rid is None:
            return
        net = rec.get("net", "?")
        if net == "local":
            # Local dispatch never records a recv; zero wire time.
            return
        msg_kind = str(rec.get("msg"))
        self._pending[(net, rec.get("msg_id", -1))] = (
            rec.time, msg_kind, rid, rec.node)
        if msg_kind == "server_result":
            span = self._spans.get(rid)
            if span is not None and span._srv_res_send is None:
                span._srv_res_send = rec.time

    def _ingest_recv(self, rec: TraceRecord) -> None:
        rid = rec.get("request_id")
        if rid is None:
            return
        net = rec.get("net", "?")
        pending = self._pending.pop((net, rec.get("msg_id", -1)), None)
        span = self._span(rid)
        if pending is not None:
            sent_at, kind, _rid, src = pending
            span.hops.append(Hop(net=net, kind=kind, sent_at=sent_at,
                                 received_at=rec.time, src=src, dst=rec.node))
        if rec.get("msg") == "server_request" and span._srv_req_recv is None:
            span._srv_req_recv = rec.time

    def _ingest_drop(self, rec: TraceRecord) -> None:
        net = rec.get("net", "?")
        pending = self._pending.pop((net, rec.get("msg_id", -1)), None)
        if pending is None:
            return
        span = self._spans.get(pending[2])
        if span is not None:
            span.drops += 1

    def _ingest_deliver(self, rec: TraceRecord) -> None:
        rid = str(rec.get("request_id"))
        span = self._span(rid, mh=rec.node, at=rec.time)
        span.deliveries += 1
        if span.delivered_at is None:
            span.delivered_at = rec.time

    def _ingest_proxy_ack(self, rec: TraceRecord) -> None:
        rid = str(rec.get("request_id"))
        span = self._span(rid)
        if span.acked_at is None:
            span.acked_at = rec.time
        span.proxy_node = rec.node

    def _ingest_proxy_admit(self, rec: TraceRecord) -> None:
        rid = str(rec.get("request_id"))
        span = self._span(rid)
        span.proxy_node = rec.node
        if span.admitted_at is None:
            span.admitted_at = rec.time

    def _ingest_proxy_result(self, rec: TraceRecord) -> None:
        # A request's span is open by now; a notification's result is a
        # request of its own (``<subscription>#n<k>``) that no MH issued,
        # so its span opens here.
        span = self._span(str(rec.get("request_id")), mh=str(rec.get("mh")),
                          at=rec.time)
        if span.result_at_proxy is None:
            span.result_at_proxy = rec.time

    def _ingest_retransmit(self, rec: TraceRecord) -> None:
        rid = str(rec.get("request_id"))
        self._span(rid).retransmits += 1

    def _ingest_handoff_done(self, rec: TraceRecord) -> None:
        mh = str(rec.get("mh"))
        duration = float(rec.get("duration", 0.0))
        self._handoffs.setdefault(mh, []).append(
            (rec.time - duration, rec.time))

    # -- bounce counting happens at send time via recv pairing -------------

    # -- results -----------------------------------------------------------

    def report(self) -> SpanReport:
        """Finalize and return all spans (idempotent)."""
        spans = [self._spans[rid] for rid in self._order]
        for span in spans:
            span.bounces = sum(
                1 for hop in span.hops if hop.kind == "result_bounce")
            span.finalize(self._handoffs.get(span.mh, []))
        return SpanReport(spans=spans)

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> SpanReport:
        """Post-hoc reconstruction from a saved trace."""
        builder = cls()
        for rec in records:
            builder.on_record(rec)
        return builder.report()


__all__ = [
    "DeliverySpan",
    "Hop",
    "SpanBuilder",
    "SpanReport",
]
