"""AN1 — at-least-once delivery under mobility, inactivity and loss.

Paper claim (Section 5, also the abstract): "for every request from a
mobile client to a network service, eventually it will receive the
result, despite its periods of inactivity and any number of migrations."

Setup: several mobile hosts issue requests while random-walking across
cells and toggling active/inactive; the wireless link additionally drops
a fraction of messages.  We compare three protocols:

* ``rdp``    — the paper's protocol: delivery ratio reaches 1.0 once the
  hosts' continued movement/reactivation lets proxies retransmit;
* ``itcp``   — the I-TCP-style baseline: also reliable (state follows the
  MH), at a much higher hand-off cost (see AN7);
* ``direct`` — best-effort: results are lost whenever the forward misses
  the MH, so the ratio stays well below 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

from ..baselines.direct import DirectDeliveryMss
from ..baselines.itcp_like import ItcpLikeMss
from ..config import LatencySpec, WorldConfig
from ..errors import ConfigError
from ..mobility.activity import ActivityProcess
from ..net.latency import ExponentialLatency
from ..servers.echo import EchoServer
from ..sim import PeriodicProcess
from ..stations.mss import MobileSupportStation
from ..types import MhState
from ..world import World
from .harness import (
    Table, drain, outstanding_requests, random_walk, request_totals,
    run_workload, settle_active, start_issuer)

MSS_CLASSES = {"rdp": MobileSupportStation, "itcp": ItcpLikeMss,
               "direct": DirectDeliveryMss}
PROTOCOLS = tuple(MSS_CLASSES)


@dataclass
class ReliabilityResult:
    """One protocol's outcome."""

    protocol: str
    requests: int
    delivered: int
    duplicate_transmissions: int
    retransmissions: int
    drain_rounds: int

    @property
    def delivery_ratio(self) -> float:
        return self.delivered / self.requests if self.requests else 1.0


def run_reliability(
    protocol: str = "rdp",
    n_hosts: int = 8,
    n_cells: int = 6,
    duration: float = 300.0,
    wireless_loss: float = 0.05,
    mean_residence: float = 15.0,
    mean_interarrival: float = 10.0,
    seed: int = 0,
) -> ReliabilityResult:
    """Run one protocol under the AN1 workload."""
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        wireless_loss=wireless_loss,
        wired_latency=LatencySpec(kind="exponential", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        trace=False,
    )
    if protocol not in MSS_CLASSES:
        raise ConfigError(f"unknown protocol {protocol!r}")
    world = World(config, mss_class=MSS_CLASSES[protocol])
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=1.0, floor=0.2))

    issue_until = duration * 0.8
    processes: List[Union[PeriodicProcess, ActivityProcess]] = []

    # Reliable *request sending* is out of RDP's scope (the paper pairs it
    # with QRPC-style client retries, Section 4): give the reliable
    # protocols a client retry so lost request uplinks are re-issued; the
    # proxy deduplicates by request id.  Best-effort gets none — it has no
    # recovery story, which is the point of the comparison.
    retry = 4.0 if protocol in ("rdp", "itcp") else None
    for i in range(n_hosts):
        name = f"mh{i}"
        cell = world.cells[i % len(world.cells)]
        client = world.add_host(name, cell, retry_interval=retry)
        random_walk(world, name, mean_residence)
        processes.append(start_issuer(
            world, client, world.rng.stream(f"workload.{name}"),
            mean_interarrival, issue_until, "an1:issue",
            payload=lambda n: {"seq": n}))

        act_rng = world.rng.stream(f"activity.{name}")
        activity = ActivityProcess(
            world.sim, client.host,
            on_duration=lambda r=act_rng: r.expovariate(1.0 / 40.0),
            off_duration=lambda r=act_rng: r.expovariate(1.0 / 8.0))
        activity.start()
        processes.append(activity)

    run_workload(world, duration, processes)
    world.sim.run_until_idle()

    rounds = 0
    if protocol in ("rdp", "itcp"):
        rounds = drain(world)
    else:
        # Best-effort has no redelivery; give it the same toggling
        # treatment anyway (bounded) to show it does not help.
        for _ in range(3):
            if outstanding_requests(world) == 0:
                break
            for host in world.hosts.values():
                if host.state is MhState.ACTIVE:
                    host.deactivate()
            world.sim.run_until_idle()
            settle_active(world)
            world.sim.run_until_idle()
            rounds += 1

    requests, delivered = request_totals(world)
    duplicates = sum(h.duplicate_deliveries for h in world.hosts.values())
    return ReliabilityResult(
        protocol=protocol,
        requests=requests,
        delivered=delivered,
        duplicate_transmissions=duplicates,
        retransmissions=(world.metrics.count("proxy_retransmissions")
                         + world.metrics.count("itcp_redeliveries")),
        drain_rounds=rounds,
    )


def run_an1(seed: int = 0, **kwargs) -> Table:
    """The AN1 comparison table across all three protocols."""
    table = Table(
        title="AN1: delivery reliability under mobility + inactivity + loss",
        columns=["protocol", "requests", "delivered", "ratio",
                 "retransmissions", "dup transmissions", "drain rounds"],
    )
    ratio = {}
    for protocol in PROTOCOLS:
        result = run_reliability(protocol=protocol, seed=seed, **kwargs)
        ratio[protocol] = result.delivery_ratio
        table.add_row(result.protocol, result.requests, result.delivered,
                      result.delivery_ratio, result.retransmissions,
                      result.duplicate_transmissions, result.drain_rounds)
    table.notes.append(
        "paper: RDP delivers every result eventually; best-effort does not")
    table.check("rdp delivers every result", ratio["rdp"] == 1)
    table.check("itcp delivers every result", ratio["itcp"] == 1)
    table.check("best-effort loses results", ratio["direct"] < 1)
    return table
