"""Metric names, units, directions and bounds — the one list.

``BENCHMARK.json`` at the repository root is generated from this module
(``python -m benchmarks.rdpbench manifest``); the test suite checks the
two agree, and that a run prints exactly these names.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from .micro import LOOPS
from .trace import LAYER_NAMES
from .workloads import RUN_SECONDS

COMMAND = ["python3", "benchmarks/rdpbench/run.py"]
PATHS = ["benchmarks/rdpbench"]

#: name -> one line on why the workload exists and its standing size.
WORKLOADS: Dict[str, str] = {
    "sim-city": (
        "bench --preset macro inputs (2000 MHs, 12x12 grid, 1% radio loss) "
        "at 15 of 60 sim-s to fit 3 runs in the window: causal ordering "
        "over 148 wired nodes dominates"),
    "sim-lossy": (
        "2000 MHs, 4x4 grid, wired loss .10/dup .02/reorder .05, radio "
        "loss .05, 30 of 120 sim-s: the only sim run of the reliable "
        "transport, fault plans and redelivery timers"),
    "sim-observed": (
        "2000 MHs, 4x4 grid, 25 of 100 sim-s, full trace + span sink + "
        "oracle: the record/sink path, trace memory, and the correctness "
        "anchor (0 violations, all spans closed)"),
    "live-rate": (
        "loopback UDP, 2 forked MSSs, 4 MHs, open loop 500 req/s for "
        "--seconds (8000 requests at 16 s; sized at 20 s), 10% shaped "
        "loss, one hand-off: codec, transport, asyncio engine"),
}

#: (name, unit, better, bound).  A bound is the share of the parent's
#: median a metric may worsen by; each is at least three times the
#: inter-quartile spread typically seen over ten seeds on any workload
#: (README.md, "Baseline").  On the shared two-vCPU host anything timed
#: spreads 4-8 % (up to 15 % in a bad quarter of an hour), hence the
#: 0.25s; simulated-time metrics are exact for a seed and spread only
#: across seeds (sim-lossy's p50 by 3-6 %); live-rate's p90 sits on the
#: edge of the retransmitted mode and flips between 83 and 97 ms.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("cpu_ms_per_request", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("delivery_p50_ms", "ms", "lower", 0.25),
    ("delivery_p90_ms", "ms", "lower", 0.25),
    ("wire_msgs_per_request", "1/request", "lower", 0.10),
]

#: Layer extras: (name, unit, better).  See README.md for definitions.
_EXTRAS: List[Tuple[str, str, str]] = [
    ("net.causal.clock_compares", "count", "lower"),
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_request", "1/request", "lower"),
    ("obs.metrics.label_lookups", "count", "lower"),
    ("net.message.size_calls", "count", "lower"),
    ("net.reliable.retransmits", "count", "lower"),
    ("net.reliable.fast_retransmits", "count", "lower"),
    ("net.reliable.dup_suppressed", "count", "lower"),
    ("net.reliable.retx_per_frame", "ratio", "lower"),
    ("net.wireless.drops", "count", "lower"),
    ("core.proxy.retransmits", "count", "lower"),
    ("stations.mss.handoffs", "count", "lower"),
    ("obs.tracing.records", "count", "lower"),
    ("obs.tracing.records_per_event", "ratio", "lower"),
    ("obs.tracing.rss_bytes_per_record", "B", "lower"),
    ("live.codec.bytes_per_msg", "B", "lower"),
    ("live.codec.encode_us", "us", "lower"),
    ("live.codec.decode_us", "us", "lower"),
    ("live.transport.retx", "count", "lower"),
    ("live.transport.shaped_drops", "count", "lower"),
    ("live.transport.spurious_retx_share", "ratio", "lower"),
    ("live.engine.gen_lag_p99_ms", "ms", "lower"),
    ("live.engine.idle_s", "s", "higher"),
    ("live.delivery_p99_ms", "ms", "lower"),
    ("live.cluster.judge_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("host.calib_mops", "Mops/s", "higher"),
]

PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYER_NAMES]
    + [(f"{layer}.calls", "count", "lower") for layer in LAYER_NAMES]
    + _EXTRAS
    + [(name, "ns", "lower") for name in LOOPS]
)

UNITS: Dict[str, str] = {"failed_share": "ratio"}
UNITS.update((name, unit) for name, unit, _better, _bound in END_TO_END)
UNITS.update((name, unit) for name, unit, _better in PER_LAYER)


def manifest() -> Dict[str, Any]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
