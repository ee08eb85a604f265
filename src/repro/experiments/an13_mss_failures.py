"""AN13 (exploration) — breaking assumption 2: MSS crashes.

The paper assumes MSSs "are reliable and do not fail" (Section 2) and
cites work on tolerating location-register failures [4].  This
experiment quantifies what that assumption is worth: random MSS
crash/restarts are injected into the AN1 workload and delivery is
measured with and without client-side request retry (the QRPC role).

Expected shape: with retries, the recovery extensions (registration
nacks, proxy-gone bounces) restore full delivery at a latency cost;
without retries, every request whose proxy died with its host is lost —
exactly why the paper needs the assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..config import LatencySpec, WorldConfig
from ..net.latency import ExponentialLatency
from ..servers.echo import EchoServer
from ..sim import PeriodicProcess
from ..world import World
from .harness import (
    Table, random_walk, request_totals, run_workload, start_issuer)


@dataclass
class FailureResult:
    crash_interval: Optional[float]
    client_retry: bool
    requests: int
    delivered: int
    crashes: int
    nacks: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.requests if self.requests else 1.0


def run_failures(
    crash_interval: Optional[float],
    client_retry: bool,
    n_hosts: int = 6,
    n_cells: int = 5,
    duration: float = 300.0,
    seed: int = 0,
) -> FailureResult:
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=0.8, floor=0.2))

    processes: List[PeriodicProcess] = []
    issue_until = duration * 0.8
    retry = 4.0 if client_retry else None
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % n_cells],
                                retry_interval=retry)
        random_walk(world, name, 12.0)
        processes.append(start_issuer(
            world, client, world.rng.stream(f"an13.{name}"), 8.0,
            issue_until, "an13:issue"))

    crashes = [0]
    if crash_interval is not None:
        crash_rng = world.rng.stream("an13.crashes")

        def crash() -> None:
            if world.sim.now > issue_until:
                return
            # Instantaneous crash+reboot through the first-class World
            # API: all volatile state is lost but no downtime accrues,
            # isolating the cost of state loss from the cost of outages
            # (AN14's fault soak covers a real downtime window).
            station = world.crash_mss(crash_rng.choice(world.cells))
            world.restart_mss(station.name)
            crashes[0] += 1
        crasher = PeriodicProcess(
            world.sim, crash,
            lambda: crash_rng.expovariate(1.0 / crash_interval),
            label="an13:crash")
        crasher.start()
        processes.append(crasher)

    run_workload(world, duration, processes)
    # Bounded settle: with crashes and no retries some requests are
    # unrecoverable by design, so "drain until empty" may never finish.
    world.sim.run(until=world.sim.now + 120.0)

    requests, delivered = request_totals(world)
    return FailureResult(
        crash_interval=crash_interval,
        client_retry=client_retry,
        requests=requests,
        delivered=delivered,
        crashes=crashes[0],
        nacks=world.metrics.count("registration_nacks"),
    )


def run_an13(seed: int = 0, **kwargs) -> Table:
    table = Table(
        title="AN13 (exploration): delivery under MSS crash/restart "
              "(paper assumption 2 broken)",
        columns=["crash interval (s)", "client retry", "crashes",
                 "requests", "delivered", "ratio", "nacks"],
    )
    for crash_interval in (None, 60.0, 20.0):
        for client_retry in (False, True):
            r = run_failures(crash_interval, client_retry, seed=seed, **kwargs)
            table.add_row(
                crash_interval if crash_interval is not None else "never",
                "on" if client_retry else "off",
                r.crashes, r.requests, r.delivered, r.delivery_ratio,
                r.nacks)
    table.notes.append(
        "without end-to-end retry, requests whose proxy died with its MSS "
        "are unrecoverable — the reason for the paper's assumption 2")
    ratio = {(row[0], row[1]): row[5] for row in table.rows}
    retry, no_retry = ratio[(20.0, "on")], ratio[(20.0, "off")]
    table.check("without crashes all is delivered", ratio[("never", "off")] == 1)
    table.check("crashes every 20 s: retry raises the ratio", retry > no_retry)
    table.check("crashes every 20 s: retry delivers > 95%", retry > 0.95)
    table.check("crashes every 20 s: no retry loses requests", no_retry < 1)
    return table
