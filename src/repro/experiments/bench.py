"""The pinned sidam-city macro scenario.

Thousands of mobile hosts roam a grid of cells, issuing TIS queries
against a partitioned server network.  :data:`PRESETS` pins its inputs;
:func:`run_scenario` builds and runs it.  ``observe`` runs it with a
span-filtered trace, and the ``sim-city`` workload of
``benchmarks/rdpbench`` times it.  ``BENCH_macro.json`` pins the
``macro`` preset's simulation-domain counts, and
``python -m benchmarks.rdpbench --workload sim-city --scale 1`` fails
when they drift (EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import LatencySpec, WorldConfig
from ..instruments import Instruments
from ..mobility.models import ExponentialResidence, RandomNeighborWalk
from ..net.latency import ExponentialLatency
from ..servers.tis_network import TisNetwork
from ..sidam.city import CityModel
from ..sidam.workload import CitizenWorkload
from ..world import World
from .harness import drain


@dataclass(frozen=True)
class BenchPreset:
    """One pinned benchmark scenario."""

    name: str
    citizens: int
    grid: int
    duration: float
    seed: int = 2026
    n_servers: int = 4
    mean_interarrival: float = 10.0
    residence: float = 20.0


#: The standing macro scenario (counts pinned in BENCH_macro.json) and
#: its CI-sized smoke variant.  Do not retune these casually: the
#: whole point is run-over-run comparability.
PRESETS: Dict[str, BenchPreset] = {
    "macro": BenchPreset(name="macro", citizens=2000, grid=12, duration=60.0),
    "smoke": BenchPreset(name="smoke", citizens=100, grid=5, duration=30.0),
}


def build_config(preset: BenchPreset, trace: bool = False) -> WorldConfig:
    """The pinned world configuration of one scenario."""
    return WorldConfig(
        seed=preset.seed,
        topology="grid",
        grid_width=preset.grid,
        grid_height=preset.grid,
        wired_latency=LatencySpec(kind="exponential", mean=0.012),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_loss=0.01,
        trace=trace,
    )


def run_scenario(
    preset: BenchPreset,
    config: WorldConfig,
    instruments: Optional[Instruments] = None,
) -> Tuple[World, List[CitizenWorkload]]:
    """Build the sidam-city world, run it to quiescence, return it.

    Shared by the ``sim-city`` benchmark (counters only) and the observe
    run (same scenario with a span-filtered trace recorder passed in
    through *instruments*) so both measure the identical workload.
    """
    world = World(config, instruments=instruments)
    city = CityModel(world.cell_map, n_servers=preset.n_servers)
    TisNetwork(world.sim, world.wired, world.directory,
               partitions=city.partitions,
               overlay_edges=city.overlay_edges(),
               instruments=world.instruments,
               service_time=ExponentialLatency(scale=0.04, floor=0.01),
               cache_ttl=20.0)
    walk = RandomNeighborWalk(world.cell_map)
    servers = sorted(city.partitions)
    workloads = []
    for i in range(preset.citizens):
        name = f"citizen{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=5.0)
        world.add_mobility(name, walk, ExponentialResidence(preset.residence))
        workload = CitizenWorkload(
            world.sim, client, city, world.rng.stream(f"wl.{name}"),
            service=f"tis.{servers[i % len(servers)]}",
            mean_interarrival=preset.mean_interarrival)
        workload.start()
        workloads.append(workload)
    world.run(until=preset.duration)
    for workload in workloads:
        workload.stop()
    drain(world)
    return world, workloads
