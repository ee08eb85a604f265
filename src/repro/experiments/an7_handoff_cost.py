"""AN7 — hand-off state-transfer cost: pref-only vs full image.

Paper claim (Sections 4/5): "Compared with similar approaches our
protocol aims at minimizing the transfer of a MH's state between the old
and new MSS during Hand-off, because most of the data related to the
request (e.g. the result) is kept at the proxy" and "except for the proxy
reference, neither result forwarding pointers nor other residue ... need
to be kept at the MSS".

Experiment: hosts with several large results pending migrate repeatedly;
RDP and the I-TCP-style baseline run the same schedule.  Measured:

* total and per-hand-off ``deregack`` bytes (RDP ships only the pref, so
  the size is flat; the I-TCP image grows with pending results);
* residue left at old MSSs (forwarding pointers — zero for RDP).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .an1_reliability import MSS_CLASSES
from .harness import Table, drain, request_totals

PROTOCOLS = ("rdp", "itcp")


@dataclass
class HandoffCostResult:
    protocol: str
    handoffs: int
    deregack_bytes_total: int
    deregack_bytes_mean: float
    forwarding_pointers: int
    delivered: int


def run_protocol(
    protocol: str,
    n_hosts: int = 4,
    n_migrations: int = 8,
    payload_bytes: int = 4096,
    pending_per_host: int = 4,
    seed: int = 0,
) -> HandoffCostResult:
    config = WorldConfig(
        seed=seed,
        n_cells=5,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        ack_delay=0.5,  # results pile up unacknowledged between hops
        trace=False,
    )
    world = World(config, mss_class=MSS_CLASSES[protocol])
    world.add_server("blob", EchoServer, service_time=ConstantLatency(0.2))

    blob = "x" * payload_bytes
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)])
        host = world.hosts[name]
        # Issue a burst so several big results are outstanding, then hop
        # from cell to cell while they chase the host.
        for j in range(pending_per_host):
            world.sim.schedule(0.1 + 0.01 * j, client.request, "blob",
                               {"i": j, "blob": blob})
        for m in range(n_migrations):
            target = world.cells[(i + m + 1) % len(world.cells)]
            world.sim.schedule(0.35 + 0.3 * m, host.migrate_to, target)

    world.run(until=60.0)
    drain(world)

    handoffs = world.metrics.count("handoffs_completed")
    total_bytes = world.monitor.bytes_of("deregack")
    pointers = 0
    for station in world.stations.values():
        pointers += len(getattr(station, "forwarding_pointers", {}))
    return HandoffCostResult(
        protocol=protocol,
        handoffs=handoffs,
        deregack_bytes_total=total_bytes,
        deregack_bytes_mean=total_bytes / handoffs if handoffs else 0.0,
        forwarding_pointers=pointers,
        delivered=request_totals(world)[1],
    )


def run_an7(seed: int = 0, **kwargs) -> Table:
    table = Table(
        title="AN7: hand-off state transfer — RDP pref vs I-TCP-style image",
        columns=["protocol", "handoffs", "deregack bytes total",
                 "bytes per handoff", "forwarding-pointer residue",
                 "results delivered"],
    )
    rdp, itcp = (run_protocol(protocol, seed=seed, **kwargs)
                 for protocol in PROTOCOLS)
    for result in (rdp, itcp):
        table.add_row(result.protocol, result.handoffs,
                      result.deregack_bytes_total, result.deregack_bytes_mean,
                      result.forwarding_pointers, result.delivered)
    table.notes.append(
        "paper: RDP hands over only the pref; no forwarding pointers or "
        "result copies remain at old MSSs")
    table.check("rdp leaves no residue", rdp.forwarding_pointers == 0)
    table.check("itcp leaves forwarding pointers", itcp.forwarding_pointers > 0)
    table.check("itcp ships > 10x rdp's bytes per hand-off",
                itcp.deregack_bytes_mean > 10 * rdp.deregack_bytes_mean)
    table.check("both deliver as many results", rdp.delivered == itcp.delivered)
    return table
