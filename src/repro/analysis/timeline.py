"""Per-entity timelines from a recorded trace.

Where :mod:`repro.analysis.sequence` renders message *arrows*, this
module renders what each entity *did* over time — one lane per node —
which is the view that makes hand-off races and retransmission storms
readable when debugging.

Example output::

    ── timeline (mh:mh1) ─────────────────────────────
    0.1000  mh:mh1   join cell0
    0.1050  mss:s0   register mh:mh1 (join)
    0.5000  mh:mh1   migrate cell0 -> cell1
    0.5250  mss:s1   handoff_done mh:mh1 (20 ms, from mss:s0)
    ...
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..sim.tracing import TraceRecord, TraceRecorder


@dataclass(frozen=True, slots=True)
class TimelineEvent:
    """One rendered timeline row."""

    time: float
    node: str
    text: str


def _describe(rec: TraceRecord) -> Optional[str]:
    kind = rec.kind
    if kind == "join":
        return f"join {rec.get('cell')}"
    if kind == "leave":
        return "leave"
    if kind == "migrate":
        return f"migrate {rec.get('old')} -> {rec.get('new')}"
    if kind == "activate":
        return f"activate in {rec.get('cell')}"
    if kind == "deactivate":
        return f"deactivate in {rec.get('cell')}"
    if kind == "register":
        return f"register {rec.get('mh')} ({rec.get('how')})"
    if kind == "handoff_start":
        return f"handoff_start {rec.get('mh')} (from {rec.get('old')})"
    if kind == "handoff_done":
        duration = rec.get("duration")
        ms = f"{duration * 1000:.0f} ms" if duration is not None else "?"
        return f"handoff_done {rec.get('mh')} ({ms}, from {rec.get('old')})"
    if kind == "handoff_out":
        return f"handoff_out {rec.get('mh')} -> {rec.get('to')}"
    if kind == "proxy_create":
        return f"proxy_create {rec.get('proxy_id')} for {rec.get('mh')}"
    if kind == "proxy_delete":
        return f"proxy_delete {rec.get('proxy_id')} for {rec.get('mh')}"
    if kind == "proxy_admit":
        return f"proxy {rec.get('proxy_id')} admits {rec.get('request_id')}"
    if kind == "proxy_move":
        return f"proxy_move {rec.get('proxy_id')} -> {rec.get('to')}"
    if kind == "retransmit":
        return f"retransmit {rec.get('request_id')} -> {rec.get('to')}"
    if kind == "deliver":
        return f"deliver {rec.get('request_id')}"
    if kind == "ack_ignored":
        return f"ack_ignored {rec.get('request_id')} ({rec.get('mh')})"
    if kind == "drop":
        return f"drop {rec.get('msg')} ({rec.get('reason')})"
    if kind == "mss_crash":
        return "CRASH (state lost)"
    return None


def extract_timeline(
    recorder: TraceRecorder,
    nodes: Optional[Sequence[str]] = None,
    include_network: bool = False,
) -> List[TimelineEvent]:
    """Build timeline rows, optionally restricted to *nodes*.
    ``include_network`` adds the raw send/recv rows (verbose)."""
    node_filter = set(nodes) if nodes is not None else None
    out: List[TimelineEvent] = []
    for rec in recorder:
        if rec.kind in ("send", "recv") and not include_network:
            continue
        if node_filter is not None and rec.node not in node_filter:
            continue
        text = _describe(rec)
        if text is None:
            if rec.kind in ("send", "recv"):
                text = f"{rec.kind} {rec.get('msg')} ({rec.get('detail')})"
            else:
                continue
        out.append(TimelineEvent(time=rec.time, node=rec.node, text=text))
    return out


def render_timeline(events: Sequence[TimelineEvent], title: str = "timeline",
                    width: int = 10) -> str:
    """Plain-text rendering, one row per event."""
    lines = [f"── {title} " + "─" * max(1, 50 - len(title))]
    if not events:
        lines.append("(no events)")
        return "\n".join(lines)
    node_width = max(len(e.node) for e in events)
    for event in events:
        lines.append(f"{event.time:{width}.4f}  {event.node:<{node_width}}  "
                     f"{event.text}")
    return "\n".join(lines)


def lane_summary(events: Sequence[TimelineEvent]) -> Dict[str, int]:
    """Events per node — a quick who-did-how-much view."""
    out: Dict[str, int] = {}
    for event in events:
        out[event.node] = out.get(event.node, 0) + 1
    return out
