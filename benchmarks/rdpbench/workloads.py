"""The four workloads: inputs, one measured instance each, correctness.

An *instance* is one complete run of one workload at one seed and one
scale: set-up, run, drain, checks.  It returns a plain dict (JSON-able)
holding the raw measurements; :func:`end_to_end` turns one into the
end-to-end metrics.  The seed reaches only the generated inputs
(``WorldConfig.seed`` / ``ClusterSpec.seed``).

Sizes: ``scale`` multiplies the simulated duration (``sim-*``) or the
seconds of offered traffic (``live-rate``) — never topology, rates or
fault mix.  ``scale=1.0`` is the size the issue sized the workload at;
:func:`standing_scale` is what the standing benchmark runs (see README).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.config import WiredFaultSpec, WirelessFaultSpec
from repro.experiments.bench import BenchPreset, build_config
from repro.experiments.harness import drain
from repro.instruments import Instruments
from repro.live import cluster as live_cluster
from repro.live.cluster import ClusterResult, ClusterSpec
from repro.mobility.models import ExponentialResidence, RandomNeighborWalk
from repro.net.latency import ExponentialLatency
from repro.obs.spans import SpanBuilder
from repro.servers.tis_network import TisNetwork
from repro.sidam.city import CityModel
from repro.sidam.workload import CitizenWorkload
from repro.sim import TraceRecorder
from repro.verify.oracle import Oracle, default_checkers
from repro.world import World

from . import ROOT

#: Scratch space for the live cluster's per-process trace dumps.  Inside
#: the checkout (the benchmark may write nowhere else) and git-ignored.
WORK_DIR = ROOT / "benchmarks" / "rdpbench" / ".work"

WORKING_SEED = 2026   # the seed sizes and baselines were taken at
HELD_OUT_SEED = 7     # a claim must also hold here


@dataclass(frozen=True)
class SimWorkload:
    """A sidam-city scenario on the simulation kernel."""

    name: str
    grid: int
    duration: float                 # simulated seconds at scale 1.0
    wired_faults: Optional[WiredFaultSpec] = None
    wireless_faults: Optional[WirelessFaultSpec] = None
    wireless_ack_timeout: Optional[float] = None
    observed: bool = False          # full trace + span sink + oracle
    citizens: int = 2000

    def preset(self, seed: int, scale: float) -> BenchPreset:
        return BenchPreset(name=self.name, citizens=self.citizens,
                           grid=self.grid, duration=self.duration * scale,
                           seed=seed)


@dataclass(frozen=True)
class LiveWorkload:
    """An open-loop request schedule against a forked loopback cluster."""

    name: str
    duration: float = 20.0          # seconds of offered traffic at scale 1.0
    rate: float = 500.0             # requests per second, all hosts together
    n_cells: int = 2
    n_hosts: int = 4
    wired_loss: float = 0.10

    def spec(self, seed: int, scale: float, trace_dir: str) -> ClusterSpec:
        gap = self.n_hosts / self.rate
        per_host = max(1, round(self.duration * scale * self.rate
                                / self.n_hosts))
        return ClusterSpec(
            seed=seed, n_cells=self.n_cells, n_hosts=self.n_hosts,
            requests_per_host=per_host, request_gap=gap,
            host_stagger=gap / self.n_hosts, wired_loss=self.wired_loss,
            deadline=120.0, trace_dir=trace_dir)


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (
        SimWorkload("sim-city", grid=12, duration=60.0),
        SimWorkload("sim-lossy", grid=4, duration=120.0,
                    wired_faults=WiredFaultSpec(loss=0.10, duplication=0.02,
                                                reorder=0.05),
                    wireless_faults=WirelessFaultSpec(loss=0.05)),
        SimWorkload("sim-observed", grid=4, duration=100.0,
                    wireless_ack_timeout=1.0, observed=True),
        LiveWorkload("live-rate"),
    )
}

#: What the standing benchmark runs.  The issue's sizes (scale 1.0) take
#: 18-30 s per instance on two cores; the run contract wants several
#: instances inside one measuring window of RUN_SECONDS, so the sim
#: durations are quartered and live-rate offers traffic for the window.
RUN_SECONDS = 16
SIM_SCALE = 0.25
LIVE_SETUP_SAMPLES = 4   # throw-away clusters per run, for setup_s only


def standing_scale(name: str, seconds: float = RUN_SECONDS) -> float:
    """The scale the standing benchmark runs *name* at."""
    workload = WORKLOADS[name]
    if isinstance(workload, LiveWorkload):
        return seconds / workload.duration
    return SIM_SCALE


#: Run ``fn`` bracketed by a profiler (trace.py) or plainly.
Around = Callable[[Callable[[], Any]], Any]


def _plain(fn: Callable[[], Any]) -> Any:
    return fn()


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty sequence."""
    return sorted_values[min(len(sorted_values) - 1,
                             int(len(sorted_values) * q))]


def _usage() -> Tuple[float, float]:
    """(CPU seconds, peak RSS MB) of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


# -- simulation kernel --------------------------------------------------------


def build_sim(workload: SimWorkload, seed: int, scale: float,
              ) -> Tuple[World, List[CitizenWorkload], Optional[Oracle],
                         Optional[SpanBuilder]]:
    """Set-up phase: world, TIS servers, hosts, mobility, generators.

    The construction order is ``experiments.bench.run_scenario``'s, so
    ``sim-city`` at scale 1.0 and seed 2026 *is* ``bench --preset macro``.
    """
    preset = workload.preset(seed, scale)
    config = build_config(preset, trace=workload.observed)
    config.wired_faults = workload.wired_faults
    config.wireless_faults = workload.wireless_faults
    config.wireless_ack_timeout = workload.wireless_ack_timeout
    oracle = builder = None
    instruments = None
    if workload.observed:
        builder = SpanBuilder()
        recorder = TraceRecorder(sink=builder.on_record)
        oracle = Oracle(default_checkers()).attach(recorder)
        instruments = Instruments(recorder=recorder)
    world = World(config, instruments=instruments)
    city = CityModel(world.cell_map, n_servers=preset.n_servers)
    TisNetwork(world.sim, world.wired, world.directory,
               partitions=city.partitions,
               overlay_edges=city.overlay_edges(),
               instruments=world.instruments,
               service_time=ExponentialLatency(scale=0.04, floor=0.01),
               cache_ttl=20.0)
    walk = RandomNeighborWalk(world.cell_map)
    servers = sorted(city.partitions)
    generators = []
    for i in range(preset.citizens):
        name = f"citizen{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=5.0)
        world.add_mobility(name, walk, ExponentialResidence(preset.residence))
        generator = CitizenWorkload(
            world.sim, client, city, world.rng.stream(f"wl.{name}"),
            service=f"tis.{servers[i % len(servers)]}",
            mean_interarrival=preset.mean_interarrival)
        generator.start()
        generators.append(generator)
    return world, generators, oracle, builder


def run_sim(world: World, generators: List[CitizenWorkload],
            duration: float) -> None:
    """Run phase: the simulated span, then drain to quiescence."""
    world.run(until=duration)
    for generator in generators:
        generator.stop()
    drain(world)


def sim_instance(workload: SimWorkload, seed: int, scale: float,
                 around: Around = _plain) -> Dict[str, Any]:
    """One complete sim run; see the module docstring."""
    t0 = time.perf_counter()
    world, generators, oracle, builder = around(
        lambda: build_sim(workload, seed, scale))
    t1 = time.perf_counter()
    rss_built = _usage()[1]
    around(lambda: run_sim(world, generators, workload.duration * scale))
    t2 = time.perf_counter()

    issued = sum(len(g.stats.requests) for g in generators)
    latencies = sorted(l for g in generators for l in g.stats.latencies())
    metrics = world.instruments.metrics
    stats: Dict[str, Any] = {
        "events": world.sim.events_executed,
        "messages": world.monitor.total_messages(),
        "queries": issued,
        "answered": len(latencies),
        "handoffs": metrics.count("handoffs_completed"),
        "retransmissions": metrics.count("proxy_retransmissions"),
        "wireless_drops": world.monitor.drops(),
        "final_time": round(world.sim.now, 6),
        "delivery_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "delivery_p90_ms": percentile(latencies, 0.90) * 1000.0,
    }
    stats["digest"] = hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]

    problems: List[str] = []
    counters: Dict[str, float] = {}
    if world.wired.transport is not None:
        counters.update({f"reliable_{k}": v for k, v
                         in world.wired.transport.describe().items()})
    if oracle is not None and builder is not None:
        violations = oracle.finish()
        report = builder.report()
        counters["trace_records"] = len(world.recorder)
        counters["trace_rss_mb"] = _usage()[1] - rss_built
        if violations:
            problems.append(f"oracle: {oracle.summary()}")
        if report.issued != issued or not report.accounted():
            problems.append(f"spans: {report.issued} spans for "
                            f"{issued} requests")
        if report.unterminated:
            problems.append(f"spans: {report.unterminated} unterminated")
    cpu, rss = _usage()
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "sizes": {"mobile_hosts": workload.citizens,
                  "grid": [workload.grid, workload.grid],
                  "sim_seconds": workload.duration * scale},
        "setup_s": t1 - t0, "run_s": t2 - t1, "cpu_s": cpu,
        "peak_rss_mb": rss, "events": stats["events"],
        "attempted": issued, "completed": len(latencies),
        "wire_msgs": stats["messages"],
        "delivery_p50_ms": stats["delivery_p50_ms"],
        "delivery_p90_ms": stats["delivery_p90_ms"],
        "sim": stats, "counters": counters, "problems": problems,
    }


# -- live backend -------------------------------------------------------------


def due_latencies(requests: Sequence[Tuple[int, int, float, float]],
                  gap: float) -> Tuple[List[float], List[float]]:
    """Open-loop latency maths.

    *requests* holds ``(host, per-host sequence number, issued at,
    delivered at)``.  Each host is an independent user on a fixed
    schedule: its request *j* is due at ``base + j*gap``, where the
    host's earliest issue (less its offset) anchors ``base``.  Returns
    ``(delivery - due, issue - due)`` per request: latency as a user on
    the schedule saw it, and how late the generator ran.  A stall
    therefore charges every request it delayed, not just the first.
    """
    base: Dict[int, float] = {}
    for host, j, issued, _ in requests:
        base[host] = min(base.get(host, issued), issued - j * gap)
    latency, lag = [], []
    for host, j, issued, delivered in requests:
        due = base[host] + j * gap
        latency.append(delivered - due)
        lag.append(issued - due)
    return sorted(latency), sorted(lag)


def _schedule_positions(result: ClusterResult,
                        ) -> List[Tuple[int, int, float, float]]:
    """(host, seq, issued, delivered) for every delivered span."""
    by_host: Dict[str, List[Any]] = {}
    for span in result.report.spans:
        by_host.setdefault(span.mh, []).append(span)
    out = []
    for mh, spans in by_host.items():
        host = int(mh.rsplit("h", 1)[1])          # "mh:h3" -> 3
        spans.sort(key=lambda s: s.issued_at)
        out.extend((host, j, s.issued_at, s.delivered_at)
                   for j, s in enumerate(spans) if s.delivered_at is not None)
    return out


def live_setup_samples(workload: LiveWorkload, seed: int, trace_dir: str,
                       count: int) -> List[float]:
    """Set-up time of *count* throw-away one-request clusters."""
    samples = []
    for _ in range(count):
        spec = workload.spec(seed, 0.0, trace_dir)
        spec.grace = 0.0
        result = live_cluster.run_cluster(spec)
        samples.append(min(s.issued_at for s in result.report.spans) - 0.1)
    return samples


@contextlib.contextmanager
def one_cpu() -> Iterator[None]:
    """Pin this process, and whatever it forks meanwhile, to one CPU.

    On a two-vCPU VM the hypervisor runs the vCPUs now as SMT siblings,
    now as time slices of one hardware thread, for minutes at a stretch;
    processes that run side by side are charged 25-30 % more CPU time in
    the first state than in the second for the same work.  Pinned, the
    cluster's processes never run side by side, and CPU time per request
    is the program's, not the placement's (README, "Baseline").
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def live_instance(workload: LiveWorkload, seed: int, scale: float,
                  around: Around = _plain) -> Dict[str, Any]:
    """One complete live run on loopback UDP (not a real link).

    Untraced runs are pinned (see :func:`one_cpu`).  A traced run is
    not: the recorder nearly doubles the CPU per request, which one CPU
    cannot serve at the offered rate.
    """
    if around is not _plain:
        return _live_instance(workload, seed, scale, around)
    with one_cpu():
        return _live_instance(workload, seed, scale, around)


def _live_instance(workload: LiveWorkload, seed: int, scale: float,
                   around: Around) -> Dict[str, Any]:
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    trace_dir = tempfile.mkdtemp(prefix="live-", dir=WORK_DIR)
    try:
        spec = workload.spec(seed, scale, trace_dir)
        t0 = time.perf_counter()
        result: ClusterResult = around(
            lambda: live_cluster.run_cluster(spec))
        run_s = time.perf_counter() - t0
        cpu, rss = _usage()
        # Left by traced station processes (trace.live_children_traced).
        layer_dumps = [json.loads(path.read_text()) for path
                       in sorted(pathlib.Path(trace_dir).glob("layers_*"))]
        setups = live_setup_samples(workload, seed, trace_dir,
                                    LIVE_SETUP_SAMPLES)
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)

    problems = [f"note: {n}" for n in result.notes]
    problems += [f"oracle: {v}" for v in result.violations[:5]]
    if not result.ok:
        problems.append(
            f"gate: issued {result.issued}/{result.expected}, completed "
            f"{result.completed}, accounted {result.accounted}")
    positions = _schedule_positions(result)
    latency, lag = due_latencies(positions, spec.request_gap)
    first_issue = min(p[2] for p in positions)
    setups.append(first_issue - 0.1)
    counts = result.counts
    retx = counts.get("wired_retx", 0)
    drops = counts.get("wired_drop", 0)
    return {
        "workload": workload.name, "seed": seed, "scale": scale,
        "sizes": {"stations": spec.n_cells, "mobile_hosts": spec.n_hosts,
                  "requests": result.expected,
                  "offered_rate_per_s": workload.rate,
                  "wired_loss": spec.wired_loss},
        "setup_s": statistics.median(setups), "run_s": run_s,
        "cpu_s": cpu, "peak_rss_mb": rss,
        "events": sum(counts.values()),
        "attempted": result.expected, "completed": result.completed,
        "wire_msgs": counts.get("send", 0) + retx,
        "delivery_p50_ms": percentile(latency, 0.50) * 1000.0,
        "delivery_p90_ms": percentile(latency, 0.90) * 1000.0,
        "counters": {
            "delivery_p99_ms": percentile(latency, 0.99) * 1000.0,
            "gen_lag_p99_ms": percentile(lag, 0.99) * 1000.0,
            "retx": retx, "shaped_drops": drops,
        },
        "child_layers": layer_dumps, "problems": problems,
    }


# -- common -------------------------------------------------------------------


def run_instance(name: str, seed: int, scale: float,
                 around: Around = _plain) -> Dict[str, Any]:
    workload = WORKLOADS[name]
    if isinstance(workload, LiveWorkload):
        return live_instance(workload, seed, scale, around)
    return sim_instance(workload, seed, scale, around)


def end_to_end(instance: Dict[str, Any]) -> Dict[str, float]:
    """The end-to-end metrics of one instance (see README for units).

    ``events_per_s`` divides by host time spent executing events: wall
    seconds of run + drain on the single-threaded sim, CPU seconds of
    all processes on ``live-rate`` (whose wall clock is set by the
    offered rate, not by the program).
    """
    live = isinstance(WORKLOADS[instance["workload"]], LiveWorkload)
    completed = max(1, instance["completed"])
    busy = instance["cpu_s"] if live else instance["run_s"]
    return {
        "setup_s": instance["setup_s"],
        "events_per_s": instance["events"] / busy,
        "cpu_ms_per_request": instance["cpu_s"] * 1000.0 / completed,
        "peak_rss_mb": instance["peak_rss_mb"],
        "delivery_p50_ms": instance["delivery_p50_ms"],
        "delivery_p90_ms": instance["delivery_p90_ms"],
        "wire_msgs_per_request": instance["wire_msgs"] / completed,
        "failed_share": 1.0 - instance["completed"] / instance["attempted"],
    }
