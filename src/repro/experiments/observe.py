"""The observability deep-dive run (``repro.experiments observe``).

Runs a pinned bench scenario with the unified observability subsystem
fully on: the world gets a :class:`~repro.sim.tracing.TraceRecorder`
filtered to :attr:`~repro.obs.spans.SpanBuilder.KINDS` with an online
:class:`~repro.obs.spans.SpanBuilder` sink, so every client request is
reconstructed as a delivery span while the simulation runs, and the
shared :class:`~repro.obs.registry.MetricsHub` fills with every typed
metric the instrumented stack emits.

The run reports:

* **span accounting** — issued vs acked vs delivered-but-unacked vs
  unterminated; the run fails (exit 1) unless every issued request is
  accounted for, the acceptance gate of the span builder;
* **stage attribution** — where delivered requests spent their time
  (wireless vs wired vs server vs proxy residency, summed over spans);
* **per-MSS load** — messages handled, results forwarded and hand-offs
  completed per station;
* **latency histogram** — the proxy-observed request completion series
  in its fixed Prometheus buckets;
* **exports** — ``--export prom`` / ``--export json`` render the hub
  via :mod:`repro.obs.export`; two runs of one preset export
  byte-identical text (the ``observe-smoke`` CI job diffs them).

Everything printed is simulation-domain and therefore deterministic;
only the trailing wall-time line differs run over run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

from ..instruments import Instruments
from ..obs.registry import Histogram, HistogramFamily, MetricsHub
from ..obs.spans import SpanBuilder, SpanReport
from ..sim import TraceRecorder
from ..types import is_mss
from ..world import World
from .bench import BenchPreset, build_config, run_scenario
from .harness import Table


@dataclass
class ObserveResult:
    """One observe run: the world, its spans and the metrics hub."""

    preset: BenchPreset
    world: World
    report: SpanReport
    queries: int
    wall: float

    @property
    def hub(self) -> MetricsHub:
        return self.world.instruments.hub

    def accounted(self) -> bool:
        """Every issued request reconstructed as exactly one span."""
        return self.report.issued == self.queries


def run_observe(preset: BenchPreset) -> ObserveResult:
    """Run one bench scenario with spans + metrics fully on."""
    started = time.perf_counter()
    builder = SpanBuilder()
    recorder = TraceRecorder(kinds=SpanBuilder.KINDS,
                             sink=builder.on_record)
    world, workloads = run_scenario(
        preset, build_config(preset, trace=True),
        instruments=Instruments(recorder=recorder))
    queries = sum(w.stats.issued for w in workloads)
    return ObserveResult(preset=preset, world=world,
                         report=builder.report(), queries=queries,
                         wall=time.perf_counter() - started)


# -- tables -------------------------------------------------------------------


def span_table(report: SpanReport, limit: int = 10) -> Table:
    """The *limit* slowest delivered spans, one row each."""
    table = Table(
        title=f"Slowest delivery spans (top {limit} by latency)",
        columns=("request", "status", "latency", "wireless", "wired",
                 "server", "proxy", "hops", "retx", "bounces", "handoffs"),
    )
    delivered = [s for s in report.spans if s.latency is not None]
    delivered.sort(key=lambda s: (-(s.latency or 0.0), s.request_id))
    for span in delivered[:limit]:
        row = span.to_row()
        table.add_row(row["request_id"], row["status"], row["latency"],
                      row["wireless_time"], row["wired_time"],
                      row["server_time"], row["proxy_time"], row["hops"],
                      row["retransmits"], row["bounces"],
                      row["handoff_overlaps"])
    return table


def mss_load_table(result: ObserveResult) -> Table:
    """Per-station load: messages handled, results forwarded, hand-offs."""
    world = result.world
    metrics = world.instruments.metrics
    loads = world.monitor.node_loads()
    forwarded = metrics.per_node("results_forwarded_to_mh")
    handoffs = metrics.per_node("handoffs_completed")
    table = Table(
        title="Per-MSS load",
        columns=("mss", "messages", "results_forwarded", "handoffs"),
        notes=["messages = wired + wireless sends and receives touching "
               "the station"],
    )
    for node in sorted(n for n in loads if is_mss(n)):
        table.add_row(node, loads[node], forwarded.get(node, 0),
                      handoffs.get(node, 0))
    return table


def latency_histogram_table(hub: MetricsHub,
                            name: str = "rdp_request_completion_time") -> Table:
    """Fixed-bucket view of one latency histogram family."""
    table = Table(title=f"Latency histogram ({name})",
                  columns=("le_seconds", "count", "cumulative"))
    family = hub.get(name)
    if not isinstance(family, HistogramFamily):
        table.notes.append("series not populated in this run")
        return table
    child = family.children.get(())
    if not isinstance(child, Histogram):
        table.notes.append("series not populated in this run")
        return table
    cumulative = child.cumulative()
    previous = 0
    for bound, total in zip(family.buckets, cumulative):
        table.add_row(bound, total - previous, total)
        previous = total
    table.add_row("+Inf", cumulative[-1] - previous, cumulative[-1])
    table.notes.append(f"count={child.total} sum={round(child.sum, 6)}")
    return table


def stage_totals(report: SpanReport) -> Dict[str, float]:
    """Summed stage attribution over all delivered spans."""
    out = {"wireless": 0.0, "wired": 0.0, "server": 0.0, "proxy": 0.0,
           "latency": 0.0}
    for span in report.spans:
        if span.latency is None:
            continue
        out["wireless"] += span.wireless_time
        out["wired"] += span.wired_time
        out["server"] += span.server_time
        out["proxy"] += span.proxy_time
        out["latency"] += span.latency
    return {k: round(v, 6) for k, v in out.items()}


# -- rendering ----------------------------------------------------------------


def render(result: ObserveResult) -> str:
    """Full human-readable report of one observe run."""
    preset, report = result.preset, result.report
    summary = report.summary()
    stages = stage_totals(report)
    total = stages["latency"] or 1.0

    def pct(key: str) -> str:
        return f"{100.0 * stages[key] / total:.1f}%"

    lines: List[str] = [
        f"observe[{preset.name}]: {preset.citizens} MHs on a "
        f"{preset.grid}x{preset.grid} grid, {preset.duration:.0f}s "
        f"simulated (seed {preset.seed})",
        f"  spans       {report.issued:>10,}   "
        f"({result.queries:,} requests issued — "
        f"{'100% accounted' if result.accounted() else 'MISMATCH'})",
        f"  acked       {summary['acked']:>10,}   "
        f"({summary['delivered_unacked']:,} delivered unacked, "
        f"{summary['unterminated']:,} unterminated)",
        f"  recovery    {summary['retransmit_spans']:>10,}   "
        f"spans retransmitted ({summary['bounce_spans']:,} bounced, "
        f"{summary['handoff_overlap_spans']:,} overlapped a hand-off)",
    ]
    latency = summary.get("latency")
    if isinstance(latency, dict):
        lines.append(
            f"  latency     mean {latency['mean']}s   p50 {latency['p50']}s  "
            f"p95 {latency['p95']}s  max {latency['max']}s")
    lines.append(
        f"  attribution wireless {pct('wireless')}  wired {pct('wired')}  "
        f"server {pct('server')}  proxy {pct('proxy')}")
    lines.append("")
    lines.append(span_table(report).render())
    lines.append("")
    lines.append(mss_load_table(result).render())
    lines.append("")
    lines.append(latency_histogram_table(result.hub).render())
    lines.append("")
    lines.append(f"  wall        {result.wall:.3f}s")
    return "\n".join(lines)

