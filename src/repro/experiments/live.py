"""The ``live`` subcommand: RDP on real sockets, gated and cross-checked.

Launches a loopback cluster (:mod:`repro.live.cluster` — one UDP-bound
process per MSS, driver-hosted mobile hosts), demands the same things
CI demands of the simulator:

* every issued request delivered **exactly once** (invariant oracle over
  the merged multi-process trace);
* **100% span accounting** — every request reconstructed as one closed
  delivery span by the unmodified :mod:`repro.obs.spans` machinery;

and then runs the identical scenario through the simulated engine,
writing a sim-vs-live cross-validation report
(:mod:`repro.live.crossval`) to ``LIVE_crossval.json`` by default.

The exit status is the acceptance gate: 0 only when the live run
delivered everything exactly once with full span accounting.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Any, Dict

from ..live.cluster import ClusterSpec, run_cluster
from ..live.crossval import crossval_report

#: Pinned scenarios.  ``smoke`` is the CI gate: 3 stations, 3 hosts,
#: 15 requests under 10% shaped wired loss, one mid-run migration.
PRESETS: Dict[str, ClusterSpec] = {
    "smoke": ClusterSpec(
        seed=2026,
        n_cells=3,
        n_hosts=3,
        requests_per_host=5,
        wired_loss=0.10,
        deadline=30.0,
        grace=1.5,
    ),
    "mini": ClusterSpec(
        seed=7,
        n_cells=2,
        n_hosts=2,
        requests_per_host=2,
        wired_loss=0.05,
        deadline=20.0,
        grace=1.0,
    ),
}


def write_report(report: Dict[str, Any], out: pathlib.Path) -> None:
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")


def render(report: Dict[str, Any]) -> str:
    """Human-readable side-by-side summary."""
    sim = report["sim"]
    live = report["live"]
    parity = report["parity"]

    def fmt_ms(value: Any) -> str:
        return "-" if value is None else f"{value * 1000:7.1f}"

    lines = [
        "LIVE: RDP over loopback UDP vs the simulated twin",
        "=" * 56,
        f"{'':<24}{'sim':>12}{'live':>12}",
        f"{'requests completed':<24}"
        f"{sim['completed']:>7}/{sim['expected']:<4}"
        f"{live['completed']:>7}/{live['expected']:<4}",
        f"{'latency mean (ms)':<24}{fmt_ms(sim['latency']['mean']):>12}"
        f"{fmt_ms(live['latency']['mean']):>12}",
        f"{'latency p50 (ms)':<24}{fmt_ms(sim['latency']['p50']):>12}"
        f"{fmt_ms(live['latency']['p50']):>12}",
        f"{'latency p95 (ms)':<24}{fmt_ms(sim['latency']['p95']):>12}"
        f"{fmt_ms(live['latency']['p95']):>12}",
        f"{'retransmissions':<24}{sim['retransmissions']:>12}"
        f"{live['retransmissions']:>12}",
        f"{'wired drops (shaped)':<24}{sim['wired_drops']:>12}"
        f"{live['wired_drops']:>12}",
        "",
        f"live exactly-once:     "
        f"{'yes' if parity['live_exactly_once'] else 'VIOLATED'}",
        f"live span accounting:  "
        f"{'100%' if parity['live_span_accounted'] else 'INCOMPLETE'}",
        f"live wall time:        {live['wall_time']:.2f}s",
    ]
    if live["oracle_violations"]:
        lines.append("oracle violations:")
        lines += [f"  {v}" for v in live["oracle_violations"]]
    if live["notes"]:
        lines.append("notes:")
        lines += [f"  {n}" for n in live["notes"]]
    return "\n".join(lines)


def run_live(args: argparse.Namespace) -> int:
    """Entry point for ``python -m repro.experiments live``."""
    spec = PRESETS[args.preset]
    result = run_cluster(spec)
    report = crossval_report(spec, result)
    write_report(report, args.out)
    if not args.quiet:
        print(render(report))
    print(f"wrote {args.out}")
    gate_ok = (result.ok
               and report["parity"]["both_delivered_everything"])
    return 0 if gate_ok else 1
