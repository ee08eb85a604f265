"""Request latency decomposition from trace records.

Breaks each completed request's end-to-end latency into

* **uplink + admission** — client issue until the proxy admits it;
* **service** — proxy admission until the server's reply reaches the
  proxy (includes overlay work for TIS-style servers);
* **delivery** — proxy receiving the result until the MH application
  sees it; this is the segment RDP's mobility handling governs (misses,
  retransmissions, waiting out inactivity).

Needs a world built with tracing enabled (``WorldConfig.trace=True``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from ..sim.tracing import TraceRecorder
from .stats import Summary, summarize

if TYPE_CHECKING:
    from ..world import World


@dataclass(frozen=True, slots=True)
class LatencyBreakdown:
    """One request's segment times (absolute simulation timestamps)."""

    request_id: str
    issued_at: float
    admitted_at: Optional[float]
    result_at_proxy: Optional[float]
    delivered_at: Optional[float]

    @property
    def complete(self) -> bool:
        return (self.admitted_at is not None
                and self.result_at_proxy is not None
                and self.delivered_at is not None)

    @property
    def admission_time(self) -> float:
        return (self.admitted_at or self.issued_at) - self.issued_at

    @property
    def service_time(self) -> float:
        if self.admitted_at is None or self.result_at_proxy is None:
            return 0.0
        return self.result_at_proxy - self.admitted_at

    @property
    def delivery_time(self) -> float:
        if self.result_at_proxy is None or self.delivered_at is None:
            return 0.0
        return self.delivered_at - self.result_at_proxy

    @property
    def total(self) -> float:
        if self.delivered_at is None:
            return 0.0
        return self.delivered_at - self.issued_at


def extract_breakdowns(world: "World") -> List[LatencyBreakdown]:
    """Build per-request breakdowns for every completed client request."""
    recorder: TraceRecorder = world.recorder
    admitted: Dict[str, float] = {}
    result_at_proxy: Dict[str, float] = {}
    delivered: Dict[str, float] = {}
    for rec in recorder:
        rid = str(rec.get("request_id", ""))
        if not rid:
            continue
        if rec.kind == "proxy_admit":
            admitted.setdefault(rid, rec.time)
        elif rec.kind == "proxy_result":
            result_at_proxy.setdefault(rid, rec.time)
        elif rec.kind == "deliver":
            delivered.setdefault(rid, rec.time)

    out: List[LatencyBreakdown] = []
    for client in world.clients.values():
        for pending in client.requests.values():
            rid = str(pending.request_id)
            out.append(LatencyBreakdown(
                request_id=rid,
                issued_at=pending.issued_at,
                admitted_at=admitted.get(rid),
                result_at_proxy=result_at_proxy.get(rid),
                delivered_at=delivered.get(rid),
            ))
    return out


@dataclass(frozen=True, slots=True)
class LatencyReport:
    """Aggregate segment statistics over a set of breakdowns."""

    count: int
    admission: Summary
    service: Summary
    delivery: Summary
    total: Summary

    def render(self) -> str:
        lines = [f"latency breakdown over {self.count} requests",
                 f"  admission : {self.admission}",
                 f"  service   : {self.service}",
                 f"  delivery  : {self.delivery}",
                 f"  total     : {self.total}"]
        return "\n".join(lines)


def latency_report(world: "World") -> LatencyReport:
    """Aggregate report for every *complete* request in the world."""
    breakdowns = [b for b in extract_breakdowns(world) if b.complete]
    return LatencyReport(
        count=len(breakdowns),
        admission=summarize([b.admission_time for b in breakdowns]),
        service=summarize([b.service_time for b in breakdowns]),
        delivery=summarize([b.delivery_time for b in breakdowns]),
        total=summarize([b.total for b in breakdowns]),
    )
