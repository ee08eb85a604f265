"""AN9 — ablation: respMss result retention (paper Section 5, footnote 3).

Paper: "if the MSS is able to detect that the target MH is currently
inactive, it may keep the message, save the re-transmission by the
proxy, and wait until the MH becomes active again."

Workload: hosts that nap a lot while slow results arrive for them.
Without retention, every result that hits a sleeping host is re-sent by
the proxy over the wired network after the reactivation's
``update_currentloc``.  With retention, the respMss redelivers locally
and briefly defers the update so the Acks win the causal race — the
wired retransmission disappears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from ..config import LatencySpec, WorldConfig
from ..mobility.activity import ActivityProcess
from ..net.latency import ExponentialLatency
from ..servers.echo import EchoServer
from ..sim import PeriodicProcess
from ..world import World
from .harness import (
    Table, drain, request_totals, run_workload, seed_totals, start_issuer)


@dataclass
class RetentionResult:
    retention: bool
    requests: int
    delivered: int
    proxy_retransmissions: int
    retained: int
    redeliveries: int
    wired_result_forwards: int


def run_retention(
    retention: bool,
    n_hosts: int = 6,
    duration: float = 400.0,
    seed: int = 0,
) -> RetentionResult:
    config = WorldConfig(
        seed=seed,
        n_cells=4,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        retain_results=retention,
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=3.0, floor=1.0))

    processes: List[Union[PeriodicProcess, ActivityProcess]] = []
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=8.0)
        host = world.hosts[name]
        rng = world.rng.stream(f"an9.{name}")
        # Issue, then nap before the (slow) result can arrive.
        processes.append(start_issuer(world, client, rng, 15.0,
                                      duration * 0.8, "an9:issue"))
        activity = ActivityProcess(
            world.sim, host,
            on_duration=lambda rng=rng: rng.expovariate(1.0 / 4.0),
            off_duration=lambda rng=rng: rng.expovariate(1.0 / 6.0))
        activity.start()
        processes.append(activity)

    run_workload(world, duration, processes)
    drain(world)

    requests, delivered = request_totals(world)
    return RetentionResult(
        retention=retention,
        requests=requests,
        delivered=delivered,
        proxy_retransmissions=world.metrics.count("proxy_retransmissions"),
        retained=world.metrics.count("results_retained"),
        redeliveries=world.metrics.count("retained_redeliveries"),
        wired_result_forwards=world.monitor.count("result_forward", "wired"),
    )


def run_an9(seeds: int = 3, **kwargs) -> Table:
    table = Table(
        title=f"AN9: footnote-3 result retention at the respMss ({seeds} seeds)",
        columns=["retention", "requests", "delivered",
                 "proxy retransmissions", "results retained",
                 "local redeliveries", "wired result forwards"],
    )
    fields = ("requests", "delivered", "proxy_retransmissions", "retained",
              "redeliveries", "wired_result_forwards")
    for retention in (False, True):
        table.add_row("on" if retention else "off", *seed_totals(
            lambda seed: run_retention(retention, seed=seed, **kwargs),
            seeds, fields))
    table.notes.append(
        "footnote 3: retention saves the proxy's wired retransmission for "
        "results that found the MH asleep")
    off, on = table.rows
    table.check("both runs issue the same requests", on[1] == off[1])
    table.check("every request is delivered", on[2] == on[1] and off[2] == off[1])
    table.check("retention cuts proxy retransmissions > 5x", on[3] < off[3] / 5)
    table.check("retention keeps some results", on[4] > 0)
    table.check(">= 90% of retained results redeliver locally", on[5] >= on[4] * 0.9)
    return table
