"""AN8 — ablation: Ack priority over hand-off transactions.

Paper (Section 3.1): "At each MSS, higher priority is given to forwarding
Ack messages (from MHs to Mssp) than to engaging in any new Hand-off
transactions.  This avoids that results already acknowledged by a MH are
re-sent to the new cell."

The rule only matters when an MSS actually queues: with instantaneous
processing, arrival order decides.  This experiment gives every MSS a
per-message processing time, loads the system with hosts that migrate
right after acknowledging, and compares the amount of
already-acknowledged retransmission work with the priority rule on and
off.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LatencySpec, WorldConfig
from ..mobility.models import RandomNeighborWalk
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table, drain, request_chain, request_totals, seed_totals


@dataclass
class AckPriorityResult:
    ack_priority: bool
    requests: int
    delivered: int
    retransmissions: int
    duplicate_transmissions: int
    acks_ignored: int


def run_priority(
    ack_priority: bool,
    n_hosts: int = 12,
    n_cells: int = 4,
    requests_per_host: int = 20,
    proc_delay: float = 0.008,
    seed: int = 0,
) -> AckPriorityResult:
    # The Ack can only lose the arrival race against greet+dereg when the
    # wireless hop is slow/jittery relative to the wired one (the paper's
    # t_wireless discussion); the per-message processing delay is what
    # makes a queue form so the priority rule has something to reorder.
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.002),
        wireless_latency=LatencySpec(kind="uniform", mean=0.020, spread=0.019),
        proc_delay=proc_delay,
        ack_priority=ack_priority,
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.15))
    walk = RandomNeighborWalk(world.cell_map)

    # Each host chains requests and migrates right after every delivery,
    # so the Ack and the next hand-off always race through the (busy) old
    # MSS.
    def migrate_soon(host, rng):
        def hop() -> None:
            target = walk.next_cell(host.current_cell, rng)
            if target is not None:
                world.sim.schedule(0.001, migrate, target)

        def migrate(target) -> None:
            if host.state.value == "active":
                host.migrate_to(target)
        return hop

    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % n_cells],
                                retry_interval=5.0)
        host = world.hosts[name]
        rng = world.rng.stream(f"an8.{name}")
        world.sim.schedule(0.1 + 0.01 * i, request_chain(
            client, requests_per_host, before=migrate_soon(host, rng)))

    world.run(until=600.0)
    drain(world)

    requests, delivered = request_totals(world)
    return AckPriorityResult(
        ack_priority=ack_priority,
        requests=requests,
        delivered=delivered,
        retransmissions=world.metrics.count("proxy_retransmissions"),
        duplicate_transmissions=sum(h.duplicate_deliveries
                                    for h in world.hosts.values()),
        acks_ignored=world.metrics.count("acks_ignored_after_dereg"),
    )


def run_an8(seeds: int = 4, **kwargs) -> Table:
    table = Table(
        title=f"AN8: Ack priority over hand-off transactions ({seeds} seeds)",
        columns=["ack priority", "requests", "delivered", "retransmissions",
                 "dup transmissions", "acks ignored"],
    )
    fields = ("requests", "delivered", "retransmissions",
              "duplicate_transmissions", "acks_ignored")
    for priority in (True, False):
        table.add_row("on" if priority else "off", *seed_totals(
            lambda seed: run_priority(priority, seed=seed, **kwargs),
            seeds, fields))
    table.notes.append(
        "paper 3.1: the priority avoids re-sending already-acknowledged "
        "results to the new cell")
    on, off = table.rows
    table.check("every request is delivered", on[2] == on[1] and off[2] == off[1])
    table.check("priority on ignores fewer Acks", on[5] < off[5])
    table.check("priority on transmits fewer duplicates", on[4] < off[4])
    return table
