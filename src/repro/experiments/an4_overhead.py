"""AN4 — the protocol's message overhead.

Paper claim (Section 5): "The overhead of this protocol is limited to the
following extra messages: (1) one update_currentloc whenever the mobile
host migrates or becomes active again; and (2) one extra Ack message sent
from respMss to the proxy whenever MH acknowledges the receipt of
result.  Besides, every request from the mobile host to an application
server has to pass through the proxy."

Experiment: a scripted run with a known number of migrations,
reactivations and delivered results (a subscription keeps the proxy alive
so every migration/reactivation indeed updates it), then an exact
accounting of the wired messages against the paper's bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..servers.multicast import GroupServer
from ..world import World
from .harness import Table


@dataclass
class OverheadResult:
    """Measured vs predicted overhead messages."""

    migrations: int
    reactivations: int
    results_acked: int
    update_currentloc: int
    ack_forwards: int
    forwarded_requests_wired: int
    local_dispatches: int

    @property
    def update_bound_holds(self) -> bool:
        return self.update_currentloc == self.migrations + self.reactivations

    @property
    def ack_bound_holds(self) -> bool:
        return self.ack_forwards == self.results_acked


def run_overhead(n_migrations: int = 6, n_reactivations: int = 3,
                 n_requests: int = 5, seed: int = 0) -> OverheadResult:
    config = WorldConfig(
        seed=seed,
        n_cells=4,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.05))
    world.add_server("groups", GroupServer)
    client = world.add_host("mh", world.cells[0])
    host = world.hosts["mh"]

    # The subscription pins the proxy for the whole run, so every
    # migration and reactivation triggers exactly one update_currentloc.
    sub = {}
    world.sim.schedule(0.05, lambda: sub.setdefault(
        "m", client.subscribe("groups", {"group": "g"})))

    t = 1.0
    for i in range(n_migrations):
        target = world.cells[(i + 1) % len(world.cells)]
        world.sim.schedule(t, host.migrate_to, target)
        t += 1.0
    for _ in range(n_reactivations):
        world.sim.schedule(t, host.deactivate)
        world.sim.schedule(t + 0.4, host.activate)
        t += 1.0
    for i in range(n_requests):
        world.sim.schedule(t, client.request, "echo", i)
        t += 1.0

    world.run(until=t + 5.0)
    # Close the subscription and flush so the run ends clean.
    client.request("groups", {"op": "leave", "group": "g",
                              "member": str(sub["m"].request_id)})
    world.run_until_idle()

    results_acked = world.metrics.count("proxy_requests_completed")
    return OverheadResult(
        migrations=world.metrics.count("mh_migrations"),
        reactivations=world.metrics.count("mh_activations"),
        results_acked=results_acked,
        update_currentloc=world.metrics.count("update_currentloc_sent"),
        ack_forwards=world.metrics.count("acks_forwarded"),
        forwarded_requests_wired=world.monitor.count("forwarded_request"),
        local_dispatches=world.metrics.count("local_dispatches"),
    )


def run_an4(seed: int = 0, **kwargs) -> Table:
    result = run_overhead(seed=seed, **kwargs)
    table = Table(
        title="AN4: protocol overhead accounting (paper Section 5 bound)",
        columns=["quantity", "measured", "paper bound", "holds"],
    )
    table.add_row("update_currentloc messages", result.update_currentloc,
                  f"migrations + reactivations = "
                  f"{result.migrations + result.reactivations}",
                  "yes" if result.update_bound_holds else "NO")
    table.add_row("extra Ack (respMss -> proxy)", result.ack_forwards,
                  f"results acked = {result.results_acked}",
                  "yes" if result.ack_bound_holds else "NO")
    table.add_row("requests routed via proxy (wired)",
                  result.forwarded_requests_wired,
                  "only when proxy is remote", "-")
    table.add_row("requests routed via proxy (local)",
                  result.local_dispatches, "free when co-located", "-")
    table.check("one update_currentloc per migration or reactivation",
                result.update_bound_holds)
    table.check("one extra Ack per acknowledged result", result.ack_bound_holds)
    return table
