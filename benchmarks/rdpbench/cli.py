"""The session report: every workload, repeats, spread, gates, layers.

    python -m benchmarks.rdpbench [run] [--workload W]... [--seed N]
        [--repeat R] [--scale X] [--traced] [--json OUT]
    python -m benchmarks.rdpbench micro
    python -m benchmarks.rdpbench manifest        # prints BENCHMARK.json

Exit status is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from typing import Any, Dict, List, Optional

from . import micro, workloads
from .metrics import UNITS, manifest
from .runner import (
    calibrate,
    layer_metrics,
    problems_of,
    spawn_instance,
)
from .trace import LAYER_NAMES

CALIB_TOLERANCE = 0.05


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(workloads.ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def pinned_macro_problems(instance: Dict[str, Any]) -> List[str]:
    """``sim-city`` at full size and the working seed is the committed
    macro scenario: its counts must equal BENCH_macro.json's."""
    path = workloads.ROOT / "BENCH_macro.json"
    if (instance["workload"] != "sim-city" or instance["scale"] != 1.0
            or instance["seed"] != workloads.WORKING_SEED
            or not path.exists()):
        return []
    pinned = json.loads(path.read_text())["determinism"]
    got = {key: instance["sim"][key] for key in pinned}
    if got == pinned:
        return []
    return [f"sim-city: counts {got} differ from BENCH_macro.json {pinned}"]


def _spread(values: List[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def report_workload(name: str, seed: int, scale: float, repeat: int,
                    traced: bool, calib: float) -> Dict[str, Any]:
    """Run, print and return one workload's section of the report."""
    instances = [spawn_instance(name, seed, scale) for _ in range(repeat)]
    profiled = (spawn_instance(name, seed, scale, traced=True)
                if traced else None)
    # The traced run is one more repeat as far as the checks go: same
    # inputs, so the same simulated outcome.
    problems = (problems_of(instances + ([profiled] if profiled else []))
                + pinned_macro_problems(instances[0]))
    rows = [workloads.end_to_end(i) for i in instances]
    metrics = {metric: _spread([row[metric] for row in rows])
               for metric in rows[0]}
    sizes = ", ".join(f"{k}={v}" for k, v in instances[0]["sizes"].items())
    print(f"\n{name}  seed={seed} scale={scale:g} repeats={repeat}  "
          f"[{sizes}]  host.calib_mops={calib:.2f}")
    if "sim" not in instances[0]:
        print("  loopback, not a real link; delivery_* are wall ms from "
              "each request's due time (open loop)")
    else:
        print("  delivery_* are simulated ms (exact for a seed); digest "
              f"{instances[0]['sim']['digest']}")
    print(f"  {'metric':<24}{'unit':<11}{'median':>14}{'min':>14}{'max':>14}")
    for metric, s in metrics.items():
        print(f"  {metric:<24}{UNITS[metric]:<11}{s['median']:>14.4f}"
              f"{s['min']:>14.4f}{s['max']:>14.4f}")
    section: Dict[str, Any] = {
        "seed": seed, "scale": scale, "sizes": instances[0]["sizes"],
        "metrics": metrics, "sim": instances[0].get("sim"),
    }
    if profiled is not None:
        layers = layer_metrics(instances[0], profiled, micro.run_micro(),
                               calib)
        section["layers"] = layers
        print_layers(layers)
    for problem in problems:
        print(f"  FAILED CHECK {problem}")
    section["problems"] = problems
    return section


def print_layers(layers: Dict[str, float]) -> None:
    busy = sum(layers[f"{layer}.self_s"] for layer in LAYER_NAMES)
    print(f"  {'layer':<18}{'self_s':>10}{'share':>8}{'calls':>12}")
    for layer in sorted(LAYER_NAMES,
                        key=lambda l: -layers[f"{l}.self_s"]):
        self_s = layers[f"{layer}.self_s"]
        print(f"  {layer:<18}{self_s:>10.3f}{self_s / busy:>8.1%}"
              f"{int(layers[f'{layer}.calls']):>12}")
    skip = {f"{l}.{f}" for l in LAYER_NAMES for f in ("self_s", "calls")}
    for name, value in layers.items():
        if name not in skip and value and not name.endswith("_ns_per_op"):
            print(f"  {name:<40}{value:>16.4f} {UNITS[name]}")


def run_micro_mode() -> Dict[str, Any]:
    loops = micro.run_micro()
    for name, value in loops.items():
        print(f"{name:<44}{value:>14.1f} {UNITS[name]}")
    kinds = micro.codec_by_kind()
    for kind, row in kinds.items():
        print(f"live.codec[{kind}]".ljust(44)
              + f"encode {row['encode_ns_per_op']:.0f} ns  "
                f"decode {row['decode_ns_per_op']:.0f} ns  "
                f"{row['bytes']:.0f} B")
    return {"micro": loops, "codec_by_kind": kinds}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.rdpbench",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=("run", "micro", "manifest"))
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.WORKING_SEED,
                        help=f"input seed (working seed "
                             f"{workloads.WORKING_SEED}; a claim must also "
                             f"hold on {workloads.HELD_OUT_SEED})")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--scale", type=float,
                        help="size multiplier for every workload (1 = the "
                             "issue's sizes; default: the standing sizes)")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)

    if args.mode == "manifest":
        print(json.dumps(manifest(), indent=2))
        return 0
    document: Dict[str, Any] = {
        "git_commit": _git_commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "seed": args.seed,
    }
    calib = calibrate()
    if args.mode == "micro":
        document.update(run_micro_mode())
    else:
        document["workloads"] = {
            name: report_workload(
                name, args.seed,
                args.scale if args.scale is not None
                else workloads.standing_scale(name),
                args.repeat, args.traced, calib)
            for name in args.workload or list(workloads.WORKLOADS)
        }
    calib_end = calibrate()
    document["host.calib_mops"] = [calib, calib_end]
    print(f"\nhost.calib_mops  start {calib:.2f}  end {calib_end:.2f}")
    if abs(calib_end - calib) > CALIB_TOLERANCE * calib:
        print("WARNING: host speed moved by more than "
              f"{CALIB_TOLERANCE:.0%} during the session (noisy "
              "neighbour?); timings above are suspect")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
    failed = [p for section in document.get("workloads", {}).values()
              for p in section["problems"]]
    print(f"{len(failed)} failed checks" if failed else "all checks passed")
    return 1 if failed else 0
