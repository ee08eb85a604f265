"""AN14–AN16 (exploration) — faults the paper assumes away.

* **AN14, the fault soak.**  The AN1 workload (mobile hosts roaming a
  ring, issuing requests with client retry) under a hostile wired
  fabric — loss, duplication, delay spikes, a timed link partition and
  an MSS crash/restart — with the invariant oracle attached throughout.
  With the :class:`~repro.net.reliable.ReliableLink` transport every
  invariant holds and every request is delivered; without it the same
  faults break the protocol (paper assumption 1 is what it restores).
* **AN15, the transport under loss.**  A wired-heavy mini-scenario swept
  over 5–20 % wired loss: goodput and delivery-latency percentiles.
* **AN16, the last-mile recovery arms.**  Every MH crashes mid-flight
  and recovers in a *different* cell, once with the full robustness
  stack (durable client log, proxy custody, wireless-leg redelivery)
  and once with none of it: the loss the machinery prevents.

Every number is simulation-domain, so the sections are byte-stable.  The
RNG stream names (``chaos.*``, ``ablation.*``, ``wl-ablation.*``) are
part of what they pin: renaming one re-seeds its draws.
"""

from __future__ import annotations

from typing import Any, Dict

from ..analysis.stats import nearest_rank
from ..config import (LatencySpec, WiredFaultSpec, WirelessFaultSpec,
                      WorldConfig)
from ..net.latency import ConstantLatency, ExponentialLatency
from ..servers.echo import EchoServer
from ..types import MhState, mss_id
from ..verify.oracle import Oracle
from ..world import World
from .harness import (Table, random_walk, request_totals, run_workload,
                      settle_active, start_issuer)

#: Seed of all three tables.  Do not retune casually: the REPORT.md
#: sections pin their outputs.
SEED = 2026

# -- AN14: the fault soak -----------------------------------------------------

_SOAK_HOSTS = 4
_SOAK_CELLS = 5
_SOAK_DURATION = 60.0
_SOAK_INTERARRIVAL = 6.0
_SOAK_RESIDENCE = 12.0
_SOAK_RETRY = 4.0
_SOAK_RADIO_LOSS = 0.05
#: s1 (one end of the partitioned link, so the transport sees both
#: outage flavours) is down over this window.
_SOAK_CRASH = (35.0, 37.0)


def _soak_config(reliable: bool) -> WorldConfig:
    """The soak's world, with the reliable link on or off."""
    return WorldConfig(
        seed=SEED,
        n_cells=_SOAK_CELLS,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=_SOAK_RADIO_LOSS,
        wired_faults=WiredFaultSpec(
            loss=0.25, duplication=0.08, spike_probability=0.02, spike=0.3,
            partitions=((mss_id("s0"), mss_id("s1"), 20.0, 28.0),)),
        wired_reliable=reliable,
        trace=True,  # the oracle needs the trace stream
    )


def run_soak(reliable: bool) -> Dict[str, Any]:
    """One soak run: its quantities by row label, in table order, and
    the wired fault schedule under ``"faults"``."""
    world = World(_soak_config(reliable))
    oracle = Oracle()
    oracle.attach(world.instruments.recorder)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=0.4, floor=0.05))
    processes = []
    for i in range(_SOAK_HOSTS):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % _SOAK_CELLS],
                                retry_interval=_SOAK_RETRY)
        random_walk(world, name, _SOAK_RESIDENCE)
        processes.append(start_issuer(
            world, client, world.rng.stream(f"chaos.{name}"),
            _SOAK_INTERARRIVAL, _SOAK_DURATION * 0.8, "chaos:issue"))
    crashed = world.stations[world.cells[1]].name
    world.sim.schedule(_SOAK_CRASH[0], world.crash_mss, crashed,
                       label="chaos:crash")
    world.sim.schedule(_SOAK_CRASH[1], world.restart_mss, crashed,
                       label="chaos:restart")
    run_workload(world, _SOAK_DURATION, processes)
    _drain(world)
    oracle.detach()
    oracle.finish()

    requests, delivered = request_totals(world)
    monitor, metrics = world.monitor, world.instruments.metrics
    link = world.wired.transport
    latency = metrics.samples("redelivery_latency")
    attempts = metrics.samples("redelivery_attempts")
    return {
        "requests": requests,
        "delivered": delivered,
        "oracle violations": len(oracle.violations),
        "violated invariants": ", ".join(sorted(
            {v.invariant for v in oracle.violations})) or "-",
        "events": world.sim.events_executed,
        "messages": monitor.total_messages(),
        "final sim time (s)": world.sim.now,
        "MSS crashes": metrics.count("mss_crashes"),
        "MSS restarts": metrics.count("mss_restarts"),
        "hand-offs": metrics.count("handoffs_completed"),
        "registration nacks": metrics.count("registration_nacks"),
        "wired drops: loss": monitor.drops_of("wired", "loss"),
        "wired drops: partition": monitor.drops_of("wired", "partition"),
        "wired drops: to a down node": monitor.drops_of("wired", "down"),
        "wired duplicates injected": world.wired.dup_injected,
        "wired delivery failures": len(world.wired.failures),
        **{f"link {key}": value
           for key, value in (link.describe() if link else {}).items()},
        # Requests that needed proxy-side redelivery (ack timeout, result
        # bounce, or location-update retransmission) before their Ack.
        "redelivered": len(latency),
        "proxy ack timeouts": metrics.count("proxy_ack_timeouts"),
        "proxy bounce retries": metrics.count("proxy_bounce_retries"),
        "proxy retransmissions": metrics.count("proxy_retransmissions"),
        "redelivery attempts (max)": int(max(attempts)) if attempts else 0,
        "redelivery latency mean (s)":
            sum(latency) / len(latency) if latency else "-",
        "redelivery latency max (s)": max(latency) if latency else "-",
        "faults": world.wired.faults.describe(),
    }


def _drain(world: World) -> None:
    """Bounded settle: four doze/wake rounds, then cut the retries.  Unlike
    :func:`~.harness.drain` it terminates when requests are unrecoverable
    by design (without the reliable link SES channels wedge)."""
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


def run_an14() -> Table:
    on, off = run_soak(reliable=True), run_soak(reliable=False)
    faults = on.pop("faults")
    off.pop("faults")
    table = Table(
        title=f"AN14 (exploration): fault soak, {_SOAK_HOSTS} MHs on a "
              f"{_SOAK_CELLS}-cell ring for {_SOAK_DURATION:.0f} s "
              f"(seed {SEED}), reliable link on vs off",
        columns=["quantity", "link on", "link off"],
    )
    for quantity, value in on.items():
        table.add_row(quantity, value, off.get(quantity, "-"))
    table.notes += [
        f"workload: each MH requests every {_SOAK_INTERARRIVAL:.0f} s "
        f"(exponential) until {_SOAK_DURATION * 0.8:.0f} s, walks with "
        f"{_SOAK_RESIDENCE:.0f} s mean residence, retries after "
        f"{_SOAK_RETRY:.0f} s; radio loss {_SOAK_RADIO_LOSS}; then a "
        f"bounded drain",
        "wired faults: " + ", ".join(f"{key} {value}"
                                     for key, value in faults.items()),
        f"s1 crashes at {_SOAK_CRASH[0]:.0f} s and restarts at "
        f"{_SOAK_CRASH[1]:.0f} s"]
    table.check("link on: no invariant is violated",
                on["oracle violations"] == 0)
    table.check("link on: every request is delivered",
                on["delivered"] == on["requests"] > 0)
    table.check("link on: loss, partition and duplication all struck",
                min(on["wired drops: loss"], on["wired drops: partition"],
                    on["wired duplicates injected"]) > 0)
    table.check("link on: the transport retransmitted",
                on["link retransmissions"] > 0)
    table.check("link on: one MSS crash and one restart",
                on["MSS crashes"] == on["MSS restarts"] == 1)
    table.check("link off: the oracle catches violations",
                off["oracle violations"] > 0)
    table.check("link off: requests are lost",
                off["delivered"] < off["requests"])
    return table


# -- AN15: the transport under wired loss -------------------------------------

_LOSSES = (0.05, 0.10, 0.20)
_ABLATION_DURATION = 40.0
_ABLATION_HOSTS = 4
_ABLATION_INTERARRIVAL = 0.8


def _ablation_config(loss: float) -> WorldConfig:
    """A pinned wired-heavy mini-scenario: static hosts, clean radio,
    constant service — the only stochastic element is wired loss, so any
    goodput/latency difference between rows is the transport's doing."""
    return WorldConfig(
        seed=SEED,
        n_cells=2,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.0,
        wired_faults=WiredFaultSpec(loss=loss),
        wired_reliable=True,
        trace=False,  # counters only: these runs are measured, not audited
    )


def _ablation_run(loss: float) -> Dict[str, Any]:
    """One row: goodput and delivery-latency percentiles at the duration
    cutoff (stragglers still in flight count against goodput — that is
    the metric's point)."""
    world = World(_ablation_config(loss))
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.020))
    processes = []
    for i in range(_ABLATION_HOSTS):
        name = f"ab{i}"
        client = world.add_host(name, world.cells[i % 2])
        processes.append(start_issuer(
            world, client, world.rng.stream(f"ablation.{name}"),
            _ABLATION_INTERARRIVAL, _ABLATION_DURATION, "ablation:issue"))
    world.run(until=_ABLATION_DURATION)
    for proc in processes:
        proc.stop()

    latencies = sorted(
        pending.completed_at - pending.issued_at
        for client in world.clients.values()
        for pending in client.requests.values()
        if pending.done and pending.completed_at is not None)
    return {
        "wired loss": loss,
        "requests": request_totals(world)[0],
        "delivered": len(latencies),
        "goodput (/s)": len(latencies) / _ABLATION_DURATION,
        "p50 (s)": nearest_rank(latencies, 0.50),
        "p99 (s)": nearest_rank(latencies, 0.99),
        "mean (s)": sum(latencies) / len(latencies),
        "retransmissions": world.wired.transport.retransmissions,
        "delivery failures": len(world.wired.failures),
    }


def run_an15() -> Table:
    rows = [_ablation_run(loss) for loss in _LOSSES]
    table = Table(
        title=f"AN15 (exploration): reliable transport under wired loss, "
              f"{_ABLATION_HOSTS} static MHs requesting every "
              f"{_ABLATION_INTERARRIVAL} s for {_ABLATION_DURATION:.0f} s "
              f"(seed {SEED})",
        columns=list(rows[0]),
    )
    for row in rows:
        table.add_row(*row.values())
    table.notes.append("latency is request to result at the MH; a request "
                       "still in flight at the cutoff counts as not delivered")
    table.check("every request is delivered at 5 % and 10 % loss",
                all(row["delivered"] == row["requests"] > 0
                    for row in rows[:2]))
    p99 = [row["p99 (s)"] for row in rows]
    table.check("p99 never falls as loss grows", p99 == sorted(p99))
    return table


# -- AN16: the last-mile recovery arms ----------------------------------------

_WL_DURATION = 30.0
_WL_HOSTS = 3
_WL_INTERARRIVAL = 0.6
_WL_ISSUE_UNTIL = 18.0
_WL_CRASH_AT = 8.0          # host i crashes at 8 + 2i ...
_WL_CRASH_SPACING = 2.0
_WL_DOWNTIME = 2.0          # ... and recovers 2 s later in a NEW cell
_WL_BLACKOUT_LENGTH = 1.2   # its old cell is dark while it is down
#: One late blackout of the recovery cell, after the issue cutoff:
#: results in flight get dropped while every MH stays registered, so the
#: only way home is the wireless ack-timeout redelivery.
_WL_LATE_BLACKOUT = (18.5, 19.5)


def _wireless_ablation_config(durable: bool) -> WorldConfig:
    """A pinned last-mile mini-scenario: clean wires, constant service,
    every MH crashes mid-flight and recovers in a different cell while
    its old cell blacks out.  The durable (``recovery``) arm runs the
    full stack; the other recovers amnesiac with redelivery forced off
    and a 1 s custody TTL that expires before the MH is back.  Any
    delivery-ratio gap between the arms is the machinery's doing."""
    blackouts = tuple(
        (f"cell{i}", _WL_CRASH_AT + i * _WL_CRASH_SPACING,
         _WL_CRASH_AT + i * _WL_CRASH_SPACING + _WL_BLACKOUT_LENGTH)
        for i in range(_WL_HOSTS)) + (
        (f"cell{_WL_HOSTS}",) + _WL_LATE_BLACKOUT,)
    return WorldConfig(
        seed=SEED,
        n_cells=_WL_HOSTS + 1,  # a spare cell to recover into
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.0,
        wireless_faults=WirelessFaultSpec(blackouts=blackouts),
        # Explicit: the automatic value is off without wired faults.
        wired_reliable=True,
        # None = the wireless-faults automatic (3.0 s); <= 0 forces off.
        wireless_ack_timeout=(None if durable else -1.0),
        proxy_custody_ttl=(None if durable else 1.0),
        trace=False,  # counters only: these runs are measured, not audited
    )


def _wireless_ablation_run(arm: str) -> Dict[str, Any]:
    """One arm.  Clients have NO retry timer, so end-to-end delivery
    rests entirely on the last-mile machinery: the durable log replays
    requests that were unanswered at crash time, and proxy custody plus
    ack-timeout redelivery walk the held results to the recovery cell.
    The amnesiac arm loses exactly the crash-straddling requests."""
    durable = arm == "recovery"
    world = World(_wireless_ablation_config(durable))
    # Slow service: a 1.2 s turnaround makes most crashes catch requests
    # mid-flight, which is the whole point of the scenario.
    world.add_server("echo", EchoServer, service_time=ConstantLatency(1.2))
    spare = world.cells[_WL_HOSTS]
    processes = []
    for i in range(_WL_HOSTS):
        name = f"wl{i}"
        client = world.add_host(name, world.cells[i])
        processes.append(start_issuer(
            world, client, world.rng.stream(f"wl-ablation.{name}"),
            _WL_INTERARRIVAL, _WL_ISSUE_UNTIL, "wl-ablation:issue"))
        crash_at = _WL_CRASH_AT + i * _WL_CRASH_SPACING
        world.sim.schedule(crash_at, world.crash_mh, name,
                           label="wl-ablation:crash")
        # Back in the spare cell, with its log or (amnesia) without.
        world.sim.schedule(crash_at + _WL_DOWNTIME, world.hosts[name].recover,
                           spare, not durable, label="wl-ablation:recover")

    world.run(until=_WL_DURATION)
    for proc in processes:
        proc.stop()
    # Settle window: redelivery backoff and the custody chase need room
    # after the last recovery; bounded, so the arm terminates even when
    # results are unrecoverable by design.
    world.sim.run(until=world.sim.now + 25.0)

    requests, delivered = request_totals(world)
    metrics = world.instruments.metrics
    return {
        "arm": arm,
        "requests": requests,
        "delivered": delivered,
        "ratio": delivered / requests,
        "recoveries": metrics.count("mh_recoveries"),
        "redeliveries": metrics.count("wireless_redeliveries"),
        "custody expired": metrics.count("proxy_custody_expired"),
        "wireless drops": world.monitor.drops_of("wireless"),
    }


def run_an16() -> Table:
    recovery, bare = (_wireless_ablation_run(arm)
                      for arm in ("recovery", "no_recovery"))
    crashes = [
        f"wl{i} {_WL_CRASH_AT + i * _WL_CRASH_SPACING:.0f}–"
        f"{_WL_CRASH_AT + i * _WL_CRASH_SPACING + _WL_DOWNTIME:.0f} s"
        for i in range(_WL_HOSTS)]
    table = Table(
        title=f"AN16 (exploration): last-mile recovery arms, {_WL_HOSTS} "
              f"MHs requesting every {_WL_INTERARRIVAL} s for "
              f"{_WL_DURATION:.0f} s, each crashing once (seed {SEED})",
        columns=list(recovery),
    )
    table.add_row(*recovery.values())
    table.add_row(*bare.values())
    table.notes += [
        f"crashes: {', '.join(crashes)}, each recovering in cell{_WL_HOSTS}; "
        f"late blackout of cell{_WL_HOSTS} {_WL_LATE_BLACKOUT[0]}–"
        f"{_WL_LATE_BLACKOUT[1]} s",
        "recovery: durable client log, proxy custody, wireless redelivery; "
        "no_recovery: amnesiac recovery, 1 s custody TTL, no redelivery"]
    table.check("both arms issue the same requests",
                recovery["requests"] == bare["requests"] > 0)
    table.check("recovery delivers every request",
                recovery["delivered"] == recovery["requests"])
    table.check("recovery: every MH recovers, results are redelivered and "
                "no custody expires",
                recovery["recoveries"] == _WL_HOSTS
                and recovery["redeliveries"] > 0
                and recovery["custody expired"] == 0)
    table.check("no_recovery loses requests to expired custody, with "
                "nothing redelivered",
                bare["delivered"] < bare["requests"]
                and bare["custody expired"] > 0
                and bare["redeliveries"] == 0)
    return table
