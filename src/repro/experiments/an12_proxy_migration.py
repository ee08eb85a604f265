"""AN12 (extension) — proxy migration for long-lived subscriptions.

AN11 showed a *static home* rendezvous paying distance-proportional
detours.  The paper's own proxies have the same issue in one corner
case: a proxy is pinned where its request series *began*, so a
subscription opened at home keeps routing every notification through
the home MSS for as long as it lives — the subscriber's roaming rebuilds
exactly the triangle the dynamic placement was meant to avoid.

The extension (docs/PROTOCOL.md §8): the respMss pulls the proxy over
once it has drifted ``proxy_migrate_distance`` units away; a forwarding
stub and a subscription-relocate message keep in-flight traffic and the
server's push address correct.

Experiment: a subscriber opens a subscription at cell0 of a line with
distance-proportional wired latency, then walks to the far end; the
server pushes a notification at each stop.  Compare notification
delivery latency by distance, migration off vs on.
"""

from __future__ import annotations

from typing import Dict

from ..config import LatencySpec, WorldConfig
from ..servers.multicast import GroupServer
from ..world import World
from .harness import Table


def run_subscription_walk(migrate: bool, n_cells: int = 12,
                          unit_delay: float = 0.010, seed: int = 0
                          ) -> Dict[int, float]:
    """Notification latency at each distance from the subscription's
    birthplace."""
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.002),
        wireless_latency=LatencySpec(kind="constant", mean=0.003),
        wired_distance_delay=unit_delay,
        proxy_migrate_distance=(3.0 if migrate else None),
    )
    world = World(config)
    server = world.add_server("groups", GroupServer)
    subscriber = world.add_host("sub", world.cells[0])
    publisher = world.add_host("pub", world.cells[n_cells // 2])
    host = world.hosts["sub"]
    membership = subscriber.subscribe("groups", {"group": "g"})
    world.run(until=2.0)

    latencies: Dict[int, float] = {}
    for hop in range(0, n_cells, 2):
        if hop > 0:
            for step in range(hop - 1, hop + 1):
                host.migrate_to(world.cells[step])
                world.run(until=world.sim.now + 2.0)
        before = len(membership.notifications)
        sent_at = world.sim.now
        publisher.request("groups", {"op": "mcast", "group": "g",
                                     "data": hop})
        world.run(until=world.sim.now + 10.0)
        arrivals = membership.notifications[before:]
        if arrivals:
            # Delivery time = when the deliver trace row appeared; use
            # the host's recorded delivery timestamps.
            deliveries = [t for t, _, payload in host.deliveries
                          if isinstance(payload, dict)
                          and payload.get("data") == hop]
            if deliveries:
                latencies[hop] = deliveries[0] - sent_at
    world.run_until_idle()
    return latencies


def run_an12(seed: int = 0, **kwargs) -> Table:
    static = run_subscription_walk(False, seed=seed, **kwargs)
    moving = run_subscription_walk(True, seed=seed, **kwargs)
    table = Table(
        title="AN12 (extension): subscription notification latency while "
              "roaming — pinned proxy vs proxy migration",
        columns=["hops from birthplace", "pinned proxy (s)",
                 "migrating proxy (s)", "pinned / migrating"],
    )
    for hop in sorted(static):
        a = static[hop]
        b = moving.get(hop, 0.0)
        table.add_row(hop, a, b, (a / b) if b else 0.0)
    table.notes.append(
        "a pinned proxy re-creates the triangle for long-lived "
        "subscriptions; migration keeps the rendezvous near the user")
    pinned, moving, ratio = ([r[i] for r in table.rows] for i in (1, 2, 3))
    table.check("pinned latency grows with distance", pinned == sorted(pinned))
    table.check("pinned latency grows > 1.5x", pinned[-1] > pinned[0] * 1.5)
    table.check("migrating stays below pinned's far end", max(moving) < pinned[-1])
    table.check("pinned / migrating > 1.5 at the far end", ratio[-1] > 1.5)
    return table
