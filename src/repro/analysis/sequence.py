"""Message-sequence chart extraction.

Figures 3 and 4 of the paper are message sequence charts.  This module
rebuilds the same charts from a recorded trace so the scenario tests can
assert the protocol produces the paper's sequences, and the examples can
print them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..sim.tracing import TraceRecord, TraceRecorder


@dataclass(frozen=True, slots=True)
class ChartEntry:
    """One arrow of a sequence chart (taken from the send event)."""

    time: float
    src: str
    dst: str
    kind: str
    detail: str

    def arrow(self) -> str:
        return f"{self.src} -> {self.dst}: {self.detail}"


def extract_chart(
    recorder: TraceRecorder,
    kinds: Optional[Iterable[str]] = None,
    participants: Optional[Iterable[str]] = None,
) -> List[ChartEntry]:
    """Build a chart from the ``send`` records of a trace.

    ``kinds`` filters message kinds; ``participants`` keeps arrows whose
    endpoints are both in the set.
    """
    kind_filter = set(kinds) if kinds is not None else None
    participant_filter = set(participants) if participants is not None else None
    chart: List[ChartEntry] = []
    for rec in recorder:
        if rec.kind != "send":
            continue
        msg_kind = rec.get("msg", "")
        if kind_filter is not None and msg_kind not in kind_filter:
            continue
        src = rec.node
        dst = str(rec.get("dst", "?"))
        if participant_filter is not None and (
                src not in participant_filter or dst not in participant_filter):
            continue
        chart.append(ChartEntry(
            time=rec.time, src=src, dst=dst, kind=msg_kind,
            detail=str(rec.get("detail", msg_kind)),
        ))
    return chart


def kinds_in_order(chart: Sequence[ChartEntry]) -> List[str]:
    """Just the message kinds, in send order — convenient for asserts."""
    return [entry.kind for entry in chart]


def render_chart(chart: Sequence[ChartEntry], title: str = "") -> str:
    """ASCII rendering of a chart (one arrow per line)."""
    lines: List[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for entry in chart:
        lines.append(f"[{entry.time:9.4f}] {entry.src:>10} -> {entry.dst:<10} {entry.detail}")
    return "\n".join(lines)


def subsequence_present(haystack: Sequence[str], needle: Sequence[str]) -> bool:
    """True when *needle* appears in *haystack* as an ordered (not
    necessarily contiguous) subsequence — the natural way to assert the
    paper's charts, which omit unrelated traffic."""
    it = iter(haystack)
    return all(any(item == want for item in it) for want in needle)
