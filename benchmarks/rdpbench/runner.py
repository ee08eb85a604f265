"""Run instances in fresh processes and turn them into metrics.

Every instance runs in its own interpreter, so ``ru_maxrss`` and CPU
time are that instance's alone and one run's garbage, caches and id
counters cannot reach the next.  The parent only aggregates.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from . import micro, trace, workloads
from .metrics import END_TO_END, PER_LAYER, UNITS

RUN_PY = str(workloads.ROOT / "benchmarks" / "rdpbench" / "run.py")
INSTANCE_TIMEOUT = 170.0
MIN_REPEATS = 3


class BenchmarkError(Exception):
    """An instance could not be run (distinct from a failed check)."""


# -- instances ----------------------------------------------------------------


def instance_main(spec_json: str) -> int:
    """Child entry: run one instance, print it as one JSON line."""
    spec = json.loads(spec_json)
    name, seed, scale = spec["workload"], spec["seed"], spec["scale"]
    if spec.get("traced"):
        recorder = trace.Recorder()
        with trace.live_children_traced():
            instance = workloads.run_instance(name, seed, scale,
                                              recorder.around)
        children = instance.pop("child_layers", [])
        instance["layers"] = trace.merge([recorder.table()] + children)
    else:
        instance = workloads.run_instance(name, seed, scale)
        instance.pop("child_layers", None)
    print(json.dumps(instance))
    return 0


def spawn_instance(name: str, seed: int, scale: float,
                   traced: bool = False) -> Dict[str, Any]:
    """Run one instance in a fresh interpreter and return its record."""
    spec = json.dumps({"workload": name, "seed": seed, "scale": scale,
                       "traced": traced})
    # Own session: a timed-out live instance is killed together with the
    # station processes it forked, so nothing outlives the benchmark.
    proc = subprocess.Popen(
        [sys.executable, RUN_PY, "--instance", spec],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(workloads.ROOT), start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=INSTANCE_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{name}: instance exceeded "
                             f"{INSTANCE_TIMEOUT:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{name}: instance exited {proc.returncode}\n"
                             f"{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def repeat_until(name: str, seed: int, scale: float, seconds: float,
                 ) -> List[Dict[str, Any]]:
    """Fresh instances back to back until *seconds* have been measured
    (at least :data:`MIN_REPEATS`, so a median is a median)."""
    started = time.perf_counter()
    instances: List[Dict[str, Any]] = []
    while (len(instances) < MIN_REPEATS
           or time.perf_counter() - started < seconds):
        instances.append(spawn_instance(name, seed, scale))
    return instances


# -- aggregation --------------------------------------------------------------


def problems_of(instances: List[Dict[str, Any]]) -> List[str]:
    """Every violated correctness check across *instances*.

    Beyond each instance's own checks: nothing failed, and the simulated
    statistics of repeats of one (workload, seed, scale) are identical.
    """
    out: List[str] = []
    for instance in instances:
        out.extend(f"{instance['workload']}: {p}"
                   for p in instance["problems"])
        if instance["completed"] != instance["attempted"]:
            out.append(f"{instance['workload']}: {instance['completed']} of "
                       f"{instance['attempted']} requests completed")
    digests = {(i["workload"], i["seed"], i["scale"], i["sim"]["digest"])
               for i in instances if "sim" in i}
    runs = {key[:3] for key in digests}
    if len(digests) != len(runs):
        out.append(f"simulated statistics differ between repeats: "
                   f"{sorted(digests)}")
    return out


def medians(instances: List[Dict[str, Any]]) -> Dict[str, float]:
    """Median over instances of every end-to-end metric."""
    rows = [workloads.end_to_end(i) for i in instances]
    return {name: statistics.median(row[name] for row in rows)
            for name in rows[0]}


def calibrate(rounds: int = 5, n: int = 1_000_000) -> float:
    """Host speed: a fixed pure-Python loop, in million iterations/s
    (best of *rounds*: what the host can do when nothing interferes)."""
    best = 0.0
    for _ in range(rounds):
        started = time.perf_counter()
        x = 0
        for i in range(n):
            x = (x + i * i) % 1000003
        best = max(best, n / (time.perf_counter() - started) / 1e6)
    return best


def layer_metrics(plain: Dict[str, Any], traced: Dict[str, Any],
                  micro_ns: Dict[str, float], calib: float,
                  ) -> Dict[str, float]:
    """The per-layer table from an untraced and a traced instance of the
    same inputs, the micro loops and the host calibration."""
    table = traced["layers"]
    probes = table["probes"]

    def probe(name: str, field: str = "calls") -> float:
        return probes.get(name, {}).get(field, 0.0)

    def per_call_us(name: str) -> float:
        calls = probe(name)
        return probe(name, "total_s") * 1e6 / calls if calls else 0.0

    out: Dict[str, float] = {}
    for layer in trace.LAYER_NAMES:
        out[f"{layer}.self_s"] = table["self_s"][layer]
        out[f"{layer}.calls"] = table["calls"][layer]
    idle = probe("idle", "total_s")
    out["live.engine.self_s"] -= idle       # waiting in epoll is not work
    out["live.engine.idle_s"] = idle

    sim = plain.get("sim", {})
    counters = plain["counters"]
    completed = max(1, plain["completed"])
    live = "sim" not in plain
    out["net.causal.clock_compares"] = probe("net.causal.clock_compares")
    out["obs.metrics.label_lookups"] = probe("obs.metrics.label_lookups")
    out["net.message.size_calls"] = probe("net.message.size_calls")
    out["sim.kernel.events"] = sim.get("events", 0)
    out["sim.kernel.events_per_request"] = sim.get("events", 0) / completed
    retx = counters.get("reliable_retransmissions", 0)
    out["net.reliable.retransmits"] = retx
    out["net.reliable.fast_retransmits"] = counters.get(
        "reliable_fast_retransmissions", 0)
    out["net.reliable.dup_suppressed"] = counters.get(
        "reliable_duplicates_suppressed", 0)
    frames = counters.get("reliable_frames_sent", 0)
    out["net.reliable.retx_per_frame"] = retx / frames if frames else 0.0
    out["net.wireless.drops"] = sim.get("wireless_drops", 0)
    out["core.proxy.retransmits"] = sim.get("retransmissions", 0)
    out["stations.mss.handoffs"] = sim.get("handoffs", 0)
    records = counters.get("trace_records", 0)
    out["obs.tracing.records"] = records
    out["obs.tracing.records_per_event"] = (
        records / sim["events"] if sim else 0.0)
    out["obs.tracing.rss_bytes_per_record"] = (
        counters["trace_rss_mb"] * 2 ** 20 / records if records else 0.0)
    out["live.codec.bytes_per_msg"] = micro_ns["live.codec.bytes_per_msg"]
    out["live.codec.encode_us"] = per_call_us("encode")
    out["live.codec.decode_us"] = per_call_us("decode")
    live_retx = counters.get("retx", 0)
    out["live.transport.retx"] = live_retx
    out["live.transport.shaped_drops"] = counters.get("shaped_drops", 0)
    out["live.transport.spurious_retx_share"] = (
        max(0, live_retx - counters["shaped_drops"]) / live_retx
        if live_retx else 0.0)
    out["live.engine.gen_lag_p99_ms"] = counters.get("gen_lag_p99_ms", 0.0)
    out["live.delivery_p99_ms"] = counters.get("delivery_p99_ms", 0.0)
    out["live.cluster.judge_s"] = probe("judge", "total_s")
    # Host time with the recorder on over host time without it: CPU of
    # all processes on the rate-bound live run, wall on the sim.
    busy = (lambda i: i["cpu_s"]) if live else (
        lambda i: i["setup_s"] + i["run_s"])
    out["trace_overhead_ratio"] = busy(traced) / busy(plain)
    out["host.calib_mops"] = calib
    out.update({k: v for k, v in micro_ns.items() if k.endswith("_ns_per_op")})
    return out


# -- the contract entry -------------------------------------------------------


def measure(name: str, seed: int, seconds: float, traced: bool,
            ) -> Tuple[Dict[str, float], List[Dict[str, Any]]]:
    """One contract run: (metrics, the instances behind them)."""
    live = isinstance(workloads.WORKLOADS[name], workloads.LiveWorkload)
    scale = workloads.standing_scale(name, seconds)
    if traced:
        calib = calibrate()
        plain = spawn_instance(name, seed, scale)
        profiled = spawn_instance(name, seed, scale, traced=True)
        values = layer_metrics(plain, profiled, micro.run_micro(), calib)
        wanted = [n for n, _unit, _better in PER_LAYER]
        return {n: values[n] for n in wanted}, [plain, profiled]
    instances = ([spawn_instance(name, seed, scale)] if live
                 else repeat_until(name, seed, scale, seconds))
    values = medians(instances)
    wanted = [n for n, _unit, _better, _bound in END_TO_END]
    return {n: values[n] for n in wanted}, instances


def driver_main(argv: Optional[List[str]] = None) -> int:
    """``run.py --workload W --seed N --seconds S --trace 0|1``."""
    parser = argparse.ArgumentParser(prog="rdpbench/run.py")
    parser.add_argument("--instance", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.WORKING_SEED)
    parser.add_argument("--seconds", type=float,
                        default=workloads.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.instance is not None:
        return instance_main(args.instance)
    if args.workload is None:
        parser.error("--workload is required")

    values, instances = measure(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    problems = problems_of(instances)
    for problem in problems:
        print(f"FAILED CHECK {problem}", file=sys.stderr)
    counted = [i for i in instances if "layers" not in i]
    attempted = sum(i["attempted"] for i in counted)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - sum(i["completed"] for i in counted),
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0
