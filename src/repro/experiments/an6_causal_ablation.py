"""AN6 — ablation: what causal wired delivery buys.

The exactly-once argument of Section 5 *depends* on assumption 1 (causal
order on the wired network): the Ack forwarded by the old MSS must reach
the proxy before the new MSS's ``update_currentloc``, otherwise the proxy
re-sends a result that was already acknowledged.

Ablation: the same mobile workload runs over three wired orderings —

* ``causal`` — the paper's assumption (SES protocol);
* ``fifo``   — per-channel FIFO only (cross-channel order may invert);
* ``raw``    — arrival order, which high latency jitter freely inverts.

Expected shape: duplicate *transmissions* (proxy retransmissions of
already-acknowledged results, observed as duplicate results at the MHs)
appear once causality is dropped, growing with reordering freedom, while
application-level exactly-once survives throughout (MH-side duplicate
detection, assumption 5).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table, drain, request_totals, seed_totals, start_chains

ORDERINGS = ("causal", "fifo", "raw")


@dataclass
class AblationResult:
    ordering: str
    requests: int
    delivered: int
    duplicate_transmissions: int
    retransmissions: int
    app_duplicates: int


def run_ordering(
    ordering: str,
    n_hosts: int = 6,
    n_cells: int = 6,
    requests_per_host: int = 25,
    mean_residence: float = 0.6,
    seed: int = 0,
) -> AblationResult:
    """One ordering under a migration-heavy workload with jittery wires."""
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        ordering=ordering,
        # Heavy jitter: wired latency uniform in [0, 0.16] — reordering is
        # frequent unless the ordering layer restores it.
        wired_latency=LatencySpec(kind="uniform", mean=0.080, spread=0.080),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        ack_delay=0.010,
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.3))
    start_chains(world, n_hosts, requests_per_host, mean_residence)
    world.run(until=600.0)
    drain(world)

    hosts = world.hosts.values()
    app_duplicates = sum(
        count - 1 for host in hosts
        for count in Counter(rid for _, rid, _ in host.deliveries).values())
    requests, delivered = request_totals(world)
    return AblationResult(
        ordering=ordering,
        requests=requests,
        delivered=delivered,
        duplicate_transmissions=sum(h.duplicate_deliveries for h in hosts),
        retransmissions=world.metrics.count("proxy_retransmissions"),
        app_duplicates=app_duplicates,
    )


def run_an6(seeds: int = 6, **kwargs) -> Table:
    """Aggregate the ablation over several seeds (single runs are noisy:
    duplicate transmissions also arise from legitimately dropped Acks,
    independent of the wired ordering)."""
    table = Table(
        title=f"AN6: wired-ordering ablation (causal vs fifo vs raw), "
              f"{seeds} seeds",
        columns=["ordering", "requests", "delivered", "retransmissions",
                 "dup transmissions", "app duplicates"],
    )
    fields = ("requests", "delivered", "retransmissions",
              "duplicate_transmissions", "app_duplicates")
    for ordering in ORDERINGS:
        table.add_row(ordering, *seed_totals(
            lambda seed: run_ordering(ordering, seed=seed, **kwargs),
            seeds, fields))
    table.notes.append(
        "app duplicates must stay 0 (MH duplicate detection); duplicate "
        "transmissions grow as ordering weakens")
    causal, fifo, raw = table.rows
    table.check("no duplicate reaches the application",
                all(row[5] == 0 for row in table.rows))
    table.check("every request is delivered",
                all(row[1] == row[2] for row in table.rows))
    table.check("causal dup transmissions <= fifo's", causal[4] <= fifo[4])
    table.check("causal dup transmissions < raw's", causal[4] < raw[4])
    return table
