"""AN14 (exploration) — the standing chaos soak.

``python -m repro.experiments chaos`` runs a pinned fault-injection
scenario — the AN1 workload (mobile hosts roaming a ring, issuing
requests with client retry) under a hostile wired fabric: message loss,
duplication, delay spikes, a timed link partition and an MSS
crash/restart cycle — with the PR-1 invariant oracle attached the whole
time.  The claim under test is the tentpole of the fault work: the
:class:`~repro.net.reliable.ReliableLink` transport restores
assumption 1 well enough that *every* protocol invariant (exactly-once
delivery, no lost result, causal wired order, ...) holds end to end
even though the fabric underneath is actively misbehaving.

The result is written as JSON (``CHAOS_report.json`` in the working
directory by default) in two sections:

* ``scenario`` + ``determinism`` — pinned inputs and simulation-domain
  outputs (counts, oracle verdict, transport/fault counters).  These
  must be byte-identical between two runs of the same preset; CI's
  ``chaos-smoke`` job enforces it and gates on zero violations.
* ``timing`` — wall-clock measurements, different on every run.

Run with ``reliable=False`` (CLI ``--unreliable``) to watch the same
faults wreck the protocol without the transport — the ablation that
shows what the reliable link buys.  Every reliable report also embeds a
``transport_ablation`` block: a pinned mini-scenario swept over 5–20%
wired loss, recording goodput and delivery-latency percentiles (the
table in ``docs/TRANSPORT.md``).

Reliable reports also embed a ``wireless_ablation`` block — the last
mile's counterpart: a pinned scenario where every MH crashes mid-flight
and recovers in a *different* cell, run once with the full robustness
stack (durable client log, proxy custody, wireless-leg redelivery, the
proxy ack-timeout backstop) and once with all of it disabled (amnesiac
recovery, 1-second custody TTL, no redelivery).  The first arm must
deliver every issued request; the second shows the measurable loss the
machinery exists to prevent (``docs/FAULTS.md``).
"""

from __future__ import annotations

import json
import pathlib
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from ..analysis.stats import nearest_rank
from ..config import (LatencySpec, WiredFaultSpec, WirelessFaultSpec,
                      WorldConfig)
from ..mobility.models import ExponentialResidence, RandomNeighborWalk
from ..net.latency import ConstantLatency, ExponentialLatency
from ..servers.echo import EchoServer
from ..sim import PeriodicProcess
from ..types import MhState, mss_id
from ..verify.oracle import Oracle
from ..world import World
from .harness import settle_active


@dataclass(frozen=True)
class ChaosPreset:
    """One pinned chaos scenario (AN1 workload + wired faults)."""

    name: str
    n_hosts: int
    n_cells: int
    duration: float
    seed: int = 2026
    # workload
    mean_interarrival: float = 6.0
    mean_residence: float = 12.0
    retry_interval: float = 4.0
    wireless_loss: float = 0.05
    # wired faults
    wired_loss: float = 0.25
    wired_dup: float = 0.08
    spike_probability: float = 0.02
    spike: float = 0.3
    # one timed partition of the s0-s1 link
    partition_at: float = 20.0
    partition_length: float = 8.0
    # one crash/restart cycle of s1
    crash_at: float = 35.0
    crash_downtime: float = 2.0


#: Pinned scenarios.  ``smoke`` is the report committed as
#: CHAOS_report.json, which the ``chaos-smoke`` CI job and tier-1 diff
#: against a fresh run, and the CLI's default, so a bare ``chaos`` from
#: the repo root rewrites that file with the same document outside
#: ``timing``; ``soak`` is the longer run.  Do not retune casually:
#: run-over-run comparability is the point.
PRESETS: Dict[str, ChaosPreset] = {
    "soak": ChaosPreset(name="soak", n_hosts=8, n_cells=6, duration=150.0),
    "smoke": ChaosPreset(name="smoke", n_hosts=4, n_cells=5, duration=60.0),
}


def build_config(preset: ChaosPreset, reliable: bool = True) -> WorldConfig:
    """The world configuration for one chaos scenario."""
    t0 = preset.partition_at
    return WorldConfig(
        seed=preset.seed,
        n_cells=preset.n_cells,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=preset.wireless_loss,
        wired_faults=WiredFaultSpec(
            loss=preset.wired_loss,
            duplication=preset.wired_dup,
            spike_probability=preset.spike_probability,
            spike=preset.spike,
            partitions=((mss_id("s0"), mss_id("s1"),
                         t0, t0 + preset.partition_length),),
        ),
        wired_reliable=reliable,
        trace=True,  # the oracle needs the trace stream
    )


def run_chaos(preset: ChaosPreset, reliable: bool = True) -> Dict[str, Any]:
    """Run one chaos scenario; return the result document."""
    started = time.perf_counter()
    world = World(build_config(preset, reliable=reliable))
    oracle = Oracle()
    oracle.attach(world.instruments.recorder)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=0.4, floor=0.05))

    processes: List[PeriodicProcess] = []
    issue_until = preset.duration * 0.8
    for i in range(preset.n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % preset.n_cells],
                                retry_interval=preset.retry_interval)
        world.add_mobility(name, RandomNeighborWalk(world.cell_map),
                           ExponentialResidence(preset.mean_residence))
        rng = world.rng.stream(f"chaos.{name}")

        def issue(client=client) -> None:
            if world.sim.now > issue_until:
                return
            if client.host.state is MhState.ACTIVE:
                client.request("echo", len(client.requests))
        proc = PeriodicProcess(
            world.sim, issue,
            lambda rng=rng: rng.expovariate(1.0 / preset.mean_interarrival),
            label="chaos:issue")
        proc.start()
        processes.append(proc)

    # One pinned crash/restart cycle of s1 (also one end of the
    # partitioned link, so the transport sees both outage flavours).
    crashed = world.stations[world.cells[1]]
    world.sim.schedule(preset.crash_at, world.crash_mss, crashed.name,
                       label="chaos:crash")
    world.sim.schedule(preset.crash_at + preset.crash_downtime,
                       world.restart_mss, crashed.name, label="chaos:restart")

    world.run(until=preset.duration)
    for proc in processes:
        proc.stop()
    for driver in world.drivers:
        driver.stop()
    _drain(world, reliable=reliable)

    oracle.detach()
    oracle.finish()
    # The ablations (skipped for the transportless run: there is
    # nothing to compare).  Sim-domain outputs only, so the blocks are
    # byte-stable run over run like the rest of ``determinism``.
    ablation = _transport_ablation(preset.seed) if reliable else None
    wireless_ablation = _wireless_ablation(preset.seed) if reliable else None
    wall = time.perf_counter() - started

    requests = sum(len(c.requests) for c in world.clients.values())
    delivered = sum(len(c.completed) for c in world.clients.values())
    monitor = world.monitor
    link = world.wired.transport
    metrics = world.instruments.metrics
    violations = sorted({v.invariant for v in oracle.violations})
    redelivery_latency = metrics.samples("redelivery_latency")
    redelivery_attempts = metrics.samples("redelivery_attempts")
    return {
        "schema": 2,
        "scenario": {
            "preset": preset.name,
            "seed": preset.seed,
            "n_hosts": preset.n_hosts,
            "n_cells": preset.n_cells,
            "duration": preset.duration,
            "reliable": reliable,
            "faults": world.wired.faults.describe()
                      if world.wired.faults is not None else None,
            "crash": [preset.crash_at,
                      preset.crash_at + preset.crash_downtime],
        },
        "determinism": {
            "events": world.sim.events_executed,
            "messages": monitor.total_messages(),
            "requests": requests,
            "delivered": delivered,
            "violations": len(oracle.violations),
            "violated_invariants": violations,
            "crashes": metrics.count("mss_crashes"),
            "restarts": metrics.count("mss_restarts"),
            "handoffs": metrics.count("handoffs_completed"),
            "nacks": metrics.count("registration_nacks"),
            "wired": {
                "drops_loss": monitor.drops_of("wired", "loss"),
                "drops_partition": monitor.drops_of("wired", "partition"),
                "drops_down": monitor.drops_of("wired", "down"),
                "dup_injected": world.wired.dup_injected,
                "delivery_failures": len(world.wired.failures),
                "transport": link.describe() if link else None,
            },
            # Requests that needed proxy-side redelivery (ack timeout,
            # result bounce, or location-update retransmission) before
            # their Ack landed — sim-domain, so byte-stable run over run.
            "redelivery": {
                "redelivered": len(redelivery_latency),
                "ack_timeouts": metrics.count("proxy_ack_timeouts"),
                "bounce_retries": metrics.count("proxy_bounce_retries"),
                "proxy_retransmissions":
                    metrics.count("proxy_retransmissions"),
                "attempts_max": (int(max(redelivery_attempts))
                                 if redelivery_attempts else 0),
                "latency_mean": (round(sum(redelivery_latency)
                                       / len(redelivery_latency), 6)
                                 if redelivery_latency else None),
                "latency_max": (round(max(redelivery_latency), 6)
                                if redelivery_latency else None),
            },
            "final_time": round(world.sim.now, 6),
            "transport_ablation": ablation,
            "wireless_ablation": wireless_ablation,
        },
        "timing": {
            "wall_seconds": round(wall, 3),
        },
    }


# -- transport ablation -------------------------------------------------------

#: Wired loss rates swept by the ablation (the table in docs/TRANSPORT.md).
ABLATION_LOSSES = (0.05, 0.10, 0.20)
_ABLATION_DURATION = 40.0
_ABLATION_HOSTS = 4
_ABLATION_INTERARRIVAL = 0.8


def _ablation_config(loss: float, seed: int) -> WorldConfig:
    """A pinned wired-heavy mini-scenario: static hosts, clean radio,
    constant service — the only stochastic element is wired loss, so any
    goodput/latency difference between rows is the transport's doing."""
    return WorldConfig(
        seed=seed,
        n_cells=2,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.0,
        wired_faults=WiredFaultSpec(loss=loss),
        wired_reliable=True,
        trace=False,  # counters only: these runs are measured, not audited
    )


def _ablation_run(loss: float, seed: int) -> Dict[str, Any]:
    """One ablation row: run the mini-scenario, report sim-domain
    goodput and delivery-latency percentiles at the duration cutoff
    (stragglers still in flight count against goodput — that is the
    metric's point)."""
    world = World(_ablation_config(loss, seed))
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.020))
    processes: List[PeriodicProcess] = []
    for i in range(_ABLATION_HOSTS):
        name = f"ab{i}"
        client = world.add_host(name, world.cells[i % 2])
        rng = world.rng.stream(f"ablation.{name}")

        def issue(client=client) -> None:
            if client.host.state is MhState.ACTIVE:
                client.request("echo", len(client.requests))
        proc = PeriodicProcess(
            world.sim, issue,
            lambda rng=rng: rng.expovariate(1.0 / _ABLATION_INTERARRIVAL),
            label="ablation:issue")
        proc.start()
        processes.append(proc)
    world.run(until=_ABLATION_DURATION)
    for proc in processes:
        proc.stop()

    latencies = sorted(
        pending.completed_at - pending.issued_at
        for client in world.clients.values()
        for pending in client.requests.values()
        if pending.done and pending.completed_at is not None)
    requests = sum(len(c.requests) for c in world.clients.values())
    return {
        "loss": loss,
        "requests": requests,
        "delivered": len(latencies),
        "goodput": round(len(latencies) / _ABLATION_DURATION, 6),
        "latency_p50": (round(nearest_rank(latencies, 0.50), 6)
                        if latencies else None),
        "latency_p99": (round(nearest_rank(latencies, 0.99), 6)
                        if latencies else None),
        "latency_mean": (round(sum(latencies) / len(latencies), 6)
                         if latencies else None),
        "retransmissions": world.wired.transport.retransmissions,
        "delivery_failures": len(world.wired.failures),
    }


def _transport_ablation(seed: int) -> Dict[str, Any]:
    """Sweep ``ABLATION_LOSSES``, one row per loss rate."""
    return {
        "duration": _ABLATION_DURATION,
        "n_hosts": _ABLATION_HOSTS,
        "mean_interarrival": _ABLATION_INTERARRIVAL,
        "losses": list(ABLATION_LOSSES),
        "rows": [_ablation_run(loss, seed) for loss in ABLATION_LOSSES],
    }


# -- wireless (last-mile) ablation --------------------------------------------

#: The two arms: full robustness stack vs. none of it.
WIRELESS_ABLATION_ARMS = ("recovery", "no_recovery")
_WL_ABLATION_DURATION = 30.0
_WL_ABLATION_HOSTS = 3
_WL_ABLATION_INTERARRIVAL = 0.6
_WL_ISSUE_UNTIL = 18.0
_WL_CRASH_AT = 8.0          # host i crashes at 8 + 2i ...
_WL_CRASH_SPACING = 2.0
_WL_DOWNTIME = 2.0          # ... and recovers 2 s later in a NEW cell
_WL_BLACKOUT_LENGTH = 1.2   # its old cell is dark while it is down
#: One late blackout of the recovery cell, after the issue cutoff:
#: results in flight get dropped while every MH stays registered, so the
#: only way home is the wireless ack-timeout redelivery.
_WL_LATE_BLACKOUT = (18.5, 19.5)


def _wireless_ablation_config(arm: str, seed: int) -> WorldConfig:
    """A pinned last-mile mini-scenario: clean wires, constant service,
    every MH crashes mid-flight and recovers in a different cell while
    its old cell blacks out.  The ``recovery`` arm runs the full stack
    (durable client log, proxy custody, wireless ack-timeout
    redelivery); ``no_recovery`` recovers amnesiac with redelivery
    forced off and a 1 s custody TTL that expires before the MH is back.
    Any delivery-ratio gap between the arms is the machinery's doing."""
    durable = arm == "recovery"
    blackouts = tuple(
        (f"cell{i}", _WL_CRASH_AT + i * _WL_CRASH_SPACING,
         _WL_CRASH_AT + i * _WL_CRASH_SPACING + _WL_BLACKOUT_LENGTH)
        for i in range(_WL_ABLATION_HOSTS)) + (
        (f"cell{_WL_ABLATION_HOSTS}",) + _WL_LATE_BLACKOUT,)
    return WorldConfig(
        seed=seed,
        n_cells=_WL_ABLATION_HOSTS + 1,  # a spare cell to recover into
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.0,
        wireless_faults=WirelessFaultSpec(blackouts=blackouts),
        wired_reliable=True,
        # None = the wireless-faults automatic (3.0 s); <= 0 forces off.
        wireless_ack_timeout=(None if durable else -1.0),
        proxy_custody_ttl=(None if durable else 1.0),
        trace=False,  # counters only: these runs are measured, not audited
    )


def _wl_recover(world: World, name: str, cell: Any, durable: bool) -> None:
    """Bring a crashed ablation host back — with or without its log."""
    if durable:
        world.recover_mh(name, cell)
    else:
        world.hosts[name].recover(cell, amnesia=True)


def _wireless_ablation_run(arm: str, seed: int) -> Dict[str, Any]:
    """One ablation arm.  Clients have NO retry timer, so end-to-end
    delivery rests entirely on the last-mile machinery: the durable log
    replays requests that were unanswered at crash time, and proxy
    custody plus ack-timeout redelivery walk the held results to the
    recovery cell.  The amnesiac arm loses exactly the crash-straddling
    requests — the measurable gap the report quantifies."""
    durable = arm == "recovery"
    world = World(_wireless_ablation_config(arm, seed))
    # Slow service: a 1.2 s turnaround makes most crashes catch requests
    # mid-flight, which is the whole point of the scenario.
    world.add_server("echo", EchoServer, service_time=ConstantLatency(1.2))
    spare = world.cells[_WL_ABLATION_HOSTS]
    processes: List[PeriodicProcess] = []
    for i in range(_WL_ABLATION_HOSTS):
        name = f"wl{i}"
        client = world.add_host(name, world.cells[i])
        rng = world.rng.stream(f"wl-ablation.{name}")

        def issue(client=client) -> None:
            if world.sim.now > _WL_ISSUE_UNTIL:
                return
            if client.host.state is MhState.ACTIVE:
                client.request("echo", len(client.requests))
        proc = PeriodicProcess(
            world.sim, issue,
            lambda rng=rng: rng.expovariate(1.0 / _WL_ABLATION_INTERARRIVAL),
            label="wl-ablation:issue")
        proc.start()
        processes.append(proc)
        crash_at = _WL_CRASH_AT + i * _WL_CRASH_SPACING
        world.sim.schedule(crash_at, world.crash_mh, name,
                           label="wl-ablation:crash")
        world.sim.schedule(crash_at + _WL_DOWNTIME, _wl_recover,
                           world, name, spare, durable,
                           label="wl-ablation:recover")

    world.run(until=_WL_ABLATION_DURATION)
    for proc in processes:
        proc.stop()
    # Settle window: redelivery backoff and the custody chase need room
    # after the last recovery; bounded, so the arm terminates even when
    # results are unrecoverable by design.
    world.sim.run(until=world.sim.now + 25.0)

    requests = sum(len(c.requests) for c in world.clients.values())
    delivered = sum(len(c.completed) for c in world.clients.values())
    metrics = world.instruments.metrics
    return {
        "arm": arm,
        "requests": requests,
        "delivered": delivered,
        "delivery_ratio": (round(delivered / requests, 6)
                           if requests else None),
        "recoveries": metrics.count("mh_recoveries"),
        "redeliveries": metrics.count("wireless_redeliveries"),
        "custody_expired": metrics.count("proxy_custody_expired"),
        "wireless_drops": world.monitor.drops_of("wireless"),
    }


def _wireless_ablation(seed: int) -> Dict[str, Any]:
    """Run both arms of the last-mile ablation (the table in
    ``docs/FAULTS.md``).  ``recovery`` must deliver everything."""
    return {
        "duration": _WL_ABLATION_DURATION,
        "n_hosts": _WL_ABLATION_HOSTS,
        "mean_interarrival": _WL_ABLATION_INTERARRIVAL,
        "crash_schedule": [
            [_WL_CRASH_AT + i * _WL_CRASH_SPACING,
             _WL_CRASH_AT + i * _WL_CRASH_SPACING + _WL_DOWNTIME]
            for i in range(_WL_ABLATION_HOSTS)],
        "late_blackout": list(_WL_LATE_BLACKOUT),
        "arms": [_wireless_ablation_run(arm, seed)
                 for arm in WIRELESS_ABLATION_ARMS],
    }


def _drain(world: World, reliable: bool) -> None:
    """Bounded settle: wake everyone, let retries run, then cut them.

    Unlike the bench drain this must terminate even when requests are
    unrecoverable by design (``reliable=False`` wedges SES channels), so
    it runs a fixed number of deactivate/activate rounds instead of
    looping until empty.
    """
    settle_active(world)
    world.sim.run(until=world.sim.now + 30.0)
    for _ in range(4):
        for host in world.hosts.values():
            if host.state is MhState.ACTIVE:
                host.deactivate()
        world.sim.run(until=world.sim.now + 20.0)
        settle_active(world)
        world.sim.run(until=world.sim.now + 20.0)
    for client in world.clients.values():
        client.cancel_retries()
    world.sim.run(until=world.sim.now + 30.0)


def render(result: Dict[str, Any]) -> str:
    """One-screen human summary of a chaos report."""
    scenario, det = result["scenario"], result["determinism"]
    wired = det["wired"]
    transport = wired["transport"] or {}
    verdict = ("OK — all invariants held" if det["violations"] == 0 else
               f"VIOLATED: {det['violations']} "
               f"({', '.join(det['violated_invariants'])})")
    link = "on" if scenario["reliable"] else "OFF"
    lines = [
        f"chaos[{scenario['preset']}]: {scenario['n_hosts']} MHs on a "
        f"{scenario['n_cells']}-cell ring, {scenario['duration']:.0f}s "
        f"simulated (seed {scenario['seed']}, reliable link {link})",
        f"  oracle      {verdict}",
        f"  requests    {det['requests']:>8,}   "
        f"({det['delivered']:,} delivered)",
        f"  wired loss  {wired['drops_loss']:>8,}   "
        f"(+{wired['drops_partition']:,} partitioned, "
        f"+{wired['drops_down']:,} to down nodes, "
        f"{wired['dup_injected']:,} dups injected)",
        f"  transport   {transport.get('retransmissions', 0):>8,} retx   "
        f"({transport.get('acks_sent', 0):,} acks, "
        f"{transport.get('duplicates_suppressed', 0):,} dups suppressed, "
        f"{wired['delivery_failures']:,} gave up)",
        f"  redelivery  {det['redelivery']['redelivered']:>8,}   "
        f"({det['redelivery']['ack_timeouts']:,} ack timeouts, "
        f"{det['redelivery']['bounce_retries']:,} bounce retries, "
        f"max {det['redelivery']['attempts_max']} attempts)",
        f"  crashes     {det['crashes']:>8,}   "
        f"({det['nacks']:,} registration nacks)",
        f"  wall        {result['timing']['wall_seconds']:>8.3f}s",
    ]
    ablation = det.get("transport_ablation")
    if ablation:
        lines.append("  ablation    loss    goodput      p50      p99     retx")
        for row in ablation["rows"]:
            lines.append(
                f"              {row['loss']:>4.0%}   "
                f"{row['goodput']:>8.3f} {row['latency_p50'] or 0:>8.3f} "
                f"{row['latency_p99'] or 0:>8.3f} {row['retransmissions']:>8,}")
    wireless = det.get("wireless_ablation")
    if wireless:
        lines.append("  last mile   arm          reqs  delivered   ratio"
                     "  redeliv  expired")
        for row in wireless["arms"]:
            ratio = row["delivery_ratio"]
            lines.append(
                f"              {row['arm']:<11}{row['requests']:>5,}  "
                f"{row['delivered']:>9,} {ratio if ratio is not None else 0:>7.3f}"
                f" {row['redeliveries']:>8,} {row['custody_expired']:>8,}")
    return "\n".join(lines)


def write_result(result: Dict[str, Any], out: pathlib.Path) -> None:
    """Write the report as stable, diff-friendly JSON."""
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
