"""Tests for WorldConfig validation and World assembly."""

from __future__ import annotations

import pytest

from repro.config import LatencySpec, WorldConfig
from repro.errors import ConfigError
from repro.net.directory import DirectoryService
from repro.net.latency import (
    ConstantLatency,
    ExponentialLatency,
    NormalLatency,
    UniformLatency,
)
from repro.world import World, build_latency

from tests.conftest import make_world


def test_config_defaults_valid():
    config = WorldConfig()
    assert config.topology == "line"
    assert config.ordering == "causal"
    assert config.placement == "current"


@pytest.mark.parametrize("field,value", [
    ("topology", "mesh"),
    ("ordering", "total"),
    ("placement", "random"),
    ("n_cells", 0),
    ("wireless_loss", 1.01),
    ("wireless_loss", -0.1),
    ("proc_delay", -1.0),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        WorldConfig(**{field: value})


def test_config_accepts_total_wireless_blackout():
    # loss == 1.0 is a legal scenario (nothing gets through the radio).
    assert WorldConfig(wireless_loss=1.0).wireless_loss == 1.0


def test_latency_spec_validation():
    with pytest.raises(ConfigError):
        LatencySpec(kind="warp")
    with pytest.raises(ConfigError):
        LatencySpec(mean=-1)


@pytest.mark.parametrize("kind,cls", [
    ("constant", ConstantLatency),
    ("uniform", UniformLatency),
    ("exponential", ExponentialLatency),
    ("normal", NormalLatency),
])
def test_build_latency_kinds(kind, cls):
    model = build_latency(LatencySpec(kind=kind, mean=0.05, spread=0.01))
    assert isinstance(model, cls)
    assert model.mean == pytest.approx(0.05, rel=0.3)


def test_world_builds_one_station_per_cell():
    world = make_world(n_cells=5)
    assert len(world.stations) == 5
    assert len(world.cells) == 5
    assert len(world.station_ids()) == 5


def test_world_cells_are_resolved_once_and_handed_out_as_copies():
    world = make_world(topology="grid", grid_width=4, grid_height=3)
    assert world.cells == world.cell_map.cells
    assert list(world.stations) == world.cell_map.cells
    handed_out = world.cells
    handed_out.reverse()
    handed_out.append("atlantis")
    assert world.cells == world.cell_map.cells


def test_world_grid_topology():
    world = make_world(topology="grid", grid_width=2, grid_height=3)
    assert len(world.stations) == 6


def test_world_unknown_cell_rejected():
    world = make_world()
    with pytest.raises(ConfigError):
        world.add_host("m", "atlantis")
    with pytest.raises(ConfigError):
        world.station("atlantis")


def test_world_trace_flag_disables_recording():
    world = make_world(trace=False)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    client.request("echo", 1)
    world.run_until_idle()
    assert len(world.recorder) == 0
    assert world.metrics.count("mh_results_delivered") == 1  # counters live


def test_world_seed_determinism():
    def run(seed):
        world = make_world(seed=seed,
                           wired_latency=LatencySpec(kind="exponential",
                                                     mean=0.02))
        world.add_server("echo")
        client = world.add_host("m", world.cells[0])
        p = client.request("echo", 1)
        world.run_until_idle()
        return p.completed_at

    assert run(1) == run(1)
    assert run(1) != run(2)


def test_directory_service():
    directory = DirectoryService()
    directory.register("a.x", "srv:1")
    directory.register("a.y", "srv:2")
    directory.register("b", "srv:3")
    assert directory.lookup("a.x") == "srv:1"
    assert directory.list("a.") == ["a.x", "a.y"]
    assert len(directory) == 3
    directory.unregister("b")
    assert not directory.contains("b")
    from repro.errors import UnknownNodeError
    with pytest.raises(UnknownNodeError):
        directory.lookup("b")


def test_run_until_idle_stops_mobility():
    from repro.mobility.models import FixedResidence, RandomNeighborWalk

    world = make_world()
    world.add_host("m", world.cells[0])
    driver = world.add_mobility("m", RandomNeighborWalk(world.cell_map),
                                FixedResidence(1.0))
    world.run(until=2.5)
    world.run_until_idle()  # would never return if mobility kept running
    assert not driver._running
