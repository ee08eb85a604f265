"""Sim/live cross-validation: the same scenario on both engines.

The live backend's whole claim is that the simulator is *faithful* — the
protocol entities are the same objects, so any divergence must come from
the transport abstraction.  This module runs the live cluster's exact
scenario (same seed, same topology, same fault spec, same request and
migration schedule) through the simulated world, and compares what can
meaningfully be compared across a discrete-event clock and a wall clock:

* **Outcome parity** (hard): both engines must deliver every request
  exactly once.  Any difference here is a bug, full stop.
* **Behaviour shape** (soft): latency distributions and retransmission
  counts land in the same regime.  These cannot match exactly — the sim
  draws latencies from its model while the live cluster measures real
  scheduler+loopback time, and the fault plans shape different
  arrival sequences — so the report records both sides and a ratio
  rather than asserting a tolerance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..config import WiredFaultSpec, WorldConfig
from ..types import CellId
from ..world import World
from .cluster import ClusterResult, ClusterSpec, schedule_workload


def _stats(latencies: List[float]) -> Dict[str, Optional[float]]:
    if not latencies:
        return {"n": 0, "mean": None, "p50": None, "p95": None, "max": None}
    ordered = sorted(latencies)

    def pct(p: float) -> float:
        idx = min(len(ordered) - 1, int(p * len(ordered)))
        return ordered[idx]

    return {
        "n": len(ordered),
        "mean": sum(ordered) / len(ordered),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "max": ordered[-1],
    }


def run_sim_twin(spec: ClusterSpec) -> Dict[str, Any]:
    """The live scenario on the simulated engine, summarised."""
    world = World(WorldConfig(
        seed=spec.seed,
        n_cells=spec.n_cells,
        topology="line",
        trace=True,
        wired_faults=(WiredFaultSpec(loss=spec.wired_loss)
                      if spec.wired_loss > 0 else None),
        wireless_loss=spec.wireless_loss,
        proxy_ack_timeout=spec.proxy_ack_timeout,
        wireless_ack_timeout=spec.wireless_ack_timeout,
    ))
    world.add_server(spec.server_name, service=spec.service)
    cells = [CellId(f"cell{i}") for i in range(spec.n_cells)]
    clients = [world.add_host(f"h{i}", cells[i % len(cells)],
                              retry_interval=spec.retry_interval)
               for i in range(spec.n_hosts)]
    schedule_workload(world.sim, spec, clients, cells)

    world.run_until_idle()

    latencies: List[float] = []
    completed = 0
    for client in clients:
        latencies.extend(client.latencies())
        completed += len(client.completed)
    counts = dict(world.instruments.recorder.counts)
    return {
        "engine": "sim",
        "expected": spec.n_hosts * spec.requests_per_host,
        "issued": sum(len(c.requests) for c in clients),
        "completed": completed,
        "latency": _stats(latencies),
        "retransmissions": (counts.get("wired_retx", 0)
                            + counts.get("retransmit", 0)),
        "wired_drops": counts.get("wired_drop", 0),
        "counts": {k: counts[k] for k in sorted(counts)},
    }


def live_summary(spec: ClusterSpec, result: ClusterResult) -> Dict[str, Any]:
    """The live run in the same shape as :func:`run_sim_twin`'s output."""
    return {
        "engine": "live",
        "expected": result.expected,
        "issued": result.issued,
        "completed": result.completed,
        "latency": _stats(result.latencies),
        "retransmissions": (result.counts.get("wired_retx", 0)
                            + result.counts.get("retransmit", 0)),
        "wired_drops": result.counts.get("wired_drop", 0),
        "counts": {k: result.counts[k] for k in sorted(result.counts)},
        "span_accounted": result.accounted,
        "oracle_violations": list(result.violations),
        "wall_time": result.wall_time,
        "notes": list(result.notes),
    }


def crossval_report(spec: ClusterSpec,
                    result: ClusterResult) -> Dict[str, Any]:
    """Run the sim twin and assemble the side-by-side report."""
    sim = run_sim_twin(spec)
    live = live_summary(spec, result)

    def ratio(a: Optional[float], b: Optional[float]) -> Optional[float]:
        if not a or not b:
            return None
        return a / b

    parity = {
        "both_delivered_everything": (
            sim["completed"] == sim["expected"]
            and live["completed"] == live["expected"]),
        "live_exactly_once": not result.violations,
        "live_span_accounted": result.accounted,
        "latency_mean_ratio_live_over_sim": ratio(
            live["latency"]["mean"], sim["latency"]["mean"]),
        "retransmissions": {"sim": sim["retransmissions"],
                            "live": live["retransmissions"]},
        "wired_drops": {"sim": sim["wired_drops"],
                        "live": live["wired_drops"]},
    }
    return {
        "scenario": {
            "seed": spec.seed,
            "n_cells": spec.n_cells,
            "n_hosts": spec.n_hosts,
            "requests_per_host": spec.requests_per_host,
            "wired_loss": spec.wired_loss,
            "wireless_loss": spec.wireless_loss,
            "retry_interval": spec.retry_interval,
            "proxy_ack_timeout": spec.proxy_ack_timeout,
            "wireless_ack_timeout": spec.wireless_ack_timeout,
            "migrate_at": spec.migrate_at,
        },
        "sim": sim,
        "live": live,
        "parity": parity,
    }
