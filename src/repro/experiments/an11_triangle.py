"""AN11 (extension) — triangle routing: the latency price of a static
rendezvous.

The paper's Section 4 contrast with Mobile IP is about load balancing,
but the same static-home-agent property has a second classic cost:
*triangle routing*.  Once the MH has roamed far from home, every result
detours through the distant home agent.  RDP's proxy is created wherever
the request series started — typically near the user — so the detour
shrinks with usage patterns instead of growing with distance from home.

Setup: a long line of cells with distance-proportional wired latency;
hosts walk away from their home cell, issuing a request every few cells.
Compare mean result latency under ``home`` vs ``current`` placement as a
function of distance from home.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.stats import percentile
from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table


def run_triangle(placement: str, hops: List[int], n_cells: int = 12,
                 unit_delay: float = 0.010, seed: int = 0
                 ) -> Dict[int, float]:
    """Mean request latency at each distance from home, one placement."""
    config = WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="line",
        placement=placement,
        persistent_proxies=(placement == "home"),
        wired_latency=LatencySpec(kind="constant", mean=0.002),
        wireless_latency=LatencySpec(kind="constant", mean=0.003),
        wired_distance_delay=unit_delay,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.02))
    client = world.add_host("m", world.cells[0])   # home = cell0
    host = world.hosts["m"]
    world.run(until=1.0)

    latencies: Dict[int, List[float]] = {}
    position = 0
    for hop in sorted(hops):
        while position < hop:
            position += 1
            host.migrate_to(world.cells[position])
            world.run(until=world.sim.now + 2.0)
        # A short request series at this distance.  Under the paper's
        # placement each series creates a *local* proxy; under home
        # placement everything still rendezvouses at cell0.
        samples = []
        for _ in range(6):
            pending = client.request("echo", hop)
            world.run(until=world.sim.now + 5.0)
            if pending.latency is not None:
                samples.append(pending.latency)
        latencies[hop] = samples
    world.run_until_idle()
    # Median: individual samples can be inflated by a hand-off race.
    return {hop: percentile(vals, 50) for hop, vals in latencies.items() if vals}


def run_an11(hops: List[int] | None = None, seed: int = 0, **kwargs) -> Table:
    hops = hops or [0, 2, 4, 7, 10]
    table = Table(
        title="AN11 (extension): triangle-routing latency vs distance from home",
        columns=["hops from home", "home placement (s)",
                 "current placement (s)", "home / current"],
    )
    home = run_triangle("home", hops, seed=seed, **kwargs)
    current = run_triangle("current", hops, seed=seed, **kwargs)
    for hop in sorted(home):
        ratio = home[hop] / current[hop] if current.get(hop) else 0.0
        table.add_row(hop, home[hop], current.get(hop, 0.0), ratio)
    table.notes.append(
        "static home rendezvous pays distance-proportional detours; the "
        "dynamic proxy stays near the request series")
    home_latency, ratio = [r[1] for r in table.rows], [r[3] for r in table.rows]
    table.check("at home the two placements tie", ratio[0] == 1)
    table.check("home latency grows with distance",
                home_latency == sorted(home_latency))
    table.check("home placement is > 2x slower at the far end", ratio[-1] > 2)
    return table
