"""Canned world configurations plus the kitchen-sink soak test.

The builders below are the setups that recur across the paper's
experiments; each returns a fresh :class:`~repro.config.WorldConfig`.
"""

from __future__ import annotations

import pytest

from repro import World
from repro.config import LatencySpec, WorldConfig
from repro.experiments.harness import drain
from repro.mobility.activity import ActivityProcess
from repro.mobility.models import ExponentialResidence, RandomNeighborWalk
from repro.net.latency import ExponentialLatency
from repro.servers.echo import EchoServer
from repro.sim import PeriodicProcess
from repro.types import MhState

from tests.invariants import assert_invariants, attach_oracle


def paper_default(n_cells: int = 3, seed: int = 0) -> WorldConfig:
    """The setup of the paper's figures: a handful of cells, reliable
    radio, constant latencies, causal wired order."""
    return WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
    )


def city_grid(width: int = 4, height: int = 4, seed: int = 0) -> WorldConfig:
    """A SIDAM-style city: grid of cells, jittery wired core, slightly
    lossy radio."""
    return WorldConfig(
        seed=seed,
        topology="grid",
        grid_width=width,
        grid_height=height,
        wired_latency=LatencySpec(kind="exponential", mean=0.012),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.01,
    )


def lossy_field_trial(n_cells: int = 6, seed: int = 0) -> WorldConfig:
    """The AN1 regime: ring of cells, 5% radio loss, exponential wired
    latency — the environment RDP's reliability claims target."""
    return WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        wired_latency=LatencySpec(kind="exponential", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.05,
    )


def narrowband(n_cells: int = 4, bandwidth_bps: float = 64_000,
               seed: int = 0) -> WorldConfig:
    """Early-cellular conditions: a shared 64 kbps medium per cell."""
    return WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.008),
        wireless_bandwidth_bps=bandwidth_bps,
    )


def metro_area(n_cells: int = 12, seed: int = 0) -> WorldConfig:
    """A long line of cells with distance-proportional wired latency and
    the proxy-migration extension armed — the AN11/AN12 geography."""
    return WorldConfig(
        seed=seed,
        n_cells=n_cells,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.002),
        wireless_latency=LatencySpec(kind="constant", mean=0.003),
        wired_distance_delay=0.010,
        proxy_migrate_distance=3.0,
    )


def everything_on(seed: int = 0) -> WorldConfig:
    """The kitchen sink: every optional mechanism enabled at once —
    queueing MSSs, lossy narrowband radio, retention, proxy migration,
    distance latency.  Used by the soak test."""
    return WorldConfig(
        seed=seed,
        topology="grid",
        grid_width=4,
        grid_height=4,
        wired_latency=LatencySpec(kind="exponential", mean=0.008),
        wireless_latency=LatencySpec(kind="uniform", mean=0.006, spread=0.004),
        wireless_loss=0.03,
        wireless_bandwidth_bps=512_000,
        wired_distance_delay=0.004,
        proc_delay=0.002,
        ack_delay=0.004,
        retain_results=True,
        proxy_migrate_distance=2.5,
    )


@pytest.mark.parametrize("builder", [
    paper_default, city_grid, lossy_field_trial, narrowband, metro_area,
    everything_on,
])
def test_presets_build_working_worlds(builder):
    world = World(builder())
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=3.0)
    p = client.request("echo", {"ping": 1})
    world.run(until=60.0)
    drain(world)
    assert p.done


def test_presets_are_independent_instances():
    a, b = paper_default(), paper_default()
    a.n_cells = 99
    assert b.n_cells == 3


def test_everything_on_soak():
    """Every optional mechanism at once, under a mixed workload: the
    protocol invariants and full delivery must still hold."""
    world = World(everything_on(seed=13))
    oracle = attach_oracle(world)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=0.4, floor=0.05))
    walk = RandomNeighborWalk(world.cell_map)
    residence = ExponentialResidence(8.0)

    processes = []
    n_hosts = 10
    issue_until = 150.0
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=4.0)
        world.add_mobility(name, walk, residence)
        rng = world.rng.stream(f"soak.{name}")

        def issue(client=client) -> None:
            if world.sim.now > issue_until:
                return
            if client.host.state is MhState.ACTIVE:
                client.request("echo", {"n": len(client.requests)})
        proc = PeriodicProcess(world.sim, issue,
                               lambda rng=rng: rng.expovariate(1.0 / 6.0))
        proc.start()
        processes.append(proc)

        activity = ActivityProcess(
            world.sim, client.host,
            on_duration=lambda rng=rng: rng.expovariate(1.0 / 25.0),
            off_duration=lambda rng=rng: rng.expovariate(1.0 / 5.0))
        activity.start()
        processes.append(activity)

    world.run(until=180.0)
    for proc in processes:
        proc.stop()
    rounds = drain(world)

    total = sum(len(c.requests) for c in world.clients.values())
    done = sum(len(c.completed) for c in world.clients.values())
    assert total > 50
    assert done == total, f"{total - done} requests lost"
    assert_invariants(world, oracle)
    # Every optional mechanism actually exercised:
    metrics = world.metrics
    assert metrics.count("handoffs_completed") > 0
    assert metrics.count("proxy_retransmissions") >= 0
    assert metrics.count("results_retained") > 0          # retention
    assert world.monitor.drops("loss") > 0                 # lossy radio
    # Proxy migration may or may not trigger depending on drift; the
    # counter existing at 0 is fine, but invariants above already cover
    # correctness when it does.
