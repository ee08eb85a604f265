"""Tests for the SIDAM application layer (city, traffic, workloads)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.mobility.cellmap import grid_topology
from repro.net.latency import ConstantLatency
from repro.servers.tis_network import TisNetwork
from repro.sidam.city import CityModel
from repro.sidam.traffic import LEVEL_MAX, LEVEL_MIN, StaffReporter, SyntheticTraffic, clamp_level
from repro.sidam.workload import CitizenWorkload
from repro.types import CellId

from tests.conftest import make_world


def test_city_model_regions_per_cell():
    city = CityModel(grid_topology(2, 2), n_servers=2, regions_per_cell=2)
    assert len(city.regions) == 8
    assert len(city.regions_of(CellId("cell0_0"))) == 2
    assert city.local_region(CellId("cell0_0")) == "cell0_0/r0"


def test_city_partitions_cover_all_regions():
    city = CityModel(grid_topology(3, 3), n_servers=4)
    assigned = [r for regions in city.partitions.values() for r in regions]
    assert sorted(assigned) == sorted(city.regions)
    assert len(city.partitions) == 4


def test_city_overlay_is_connected_line():
    city = CityModel(grid_topology(2, 2), n_servers=3)
    edges = city.overlay_edges()
    assert len(edges) == 2


def test_pick_region_locality():
    city = CityModel(grid_topology(2, 2), n_servers=1)
    rng = random.Random(0)
    local = city.local_region(CellId("cell0_0"))
    picks = [city.pick_region(rng, CellId("cell0_0"), locality=1.0)
             for _ in range(20)]
    assert all(p == local for p in picks)
    spread = {city.pick_region(rng, CellId("cell0_0"), locality=0.0)
              for _ in range(200)}
    assert len(spread) > 1


def test_pick_region_invalid_locality():
    city = CityModel(grid_topology(2, 2), n_servers=1)
    with pytest.raises(ConfigError):
        city.pick_region(random.Random(0), CellId("cell0_0"), locality=1.5)


def test_clamp_level():
    assert clamp_level(-5) == LEVEL_MIN
    assert clamp_level(99) == LEVEL_MAX
    assert clamp_level(4.2) == 4.2


def _city_world():
    world = make_world(n_cells=4, topology="ring")
    city = CityModel(world.cell_map, n_servers=2)
    tis = TisNetwork(
        world.sim, world.wired, world.directory,
        partitions=city.partitions,
        overlay_edges=city.overlay_edges(),
        instruments=world.instruments,
        service_time=ConstantLatency(0.02),
    )
    return world, city, tis


def test_synthetic_traffic_evolves_levels():
    world, city, tis = _city_world()
    driver = SyntheticTraffic(world.sim, tis, world.rng.stream("traffic"),
                              period=1.0, step=2.0)
    driver.start()
    world.run(until=5.5)
    driver.stop()
    assert driver.updates_applied == 5 * len(city.regions)
    levels = [tis.level_of(r) for r in city.regions]
    assert any(level != 0.0 for level in levels)
    assert all(LEVEL_MIN <= level <= LEVEL_MAX for level in levels)
    world.run_until_idle()


def test_staff_reporter_updates_local_region():
    world, city, tis = _city_world()
    client = world.add_host("staff", world.cells[0])
    reporter = StaffReporter(world.sim, client, city,
                             world.rng.stream("staff"),
                             service="tis.tis0", period=2.0)
    reporter.start()
    world.run(until=7.0)
    reporter.stop()
    world.run_until_idle()
    assert reporter.reports_sent == 3
    done = [p for p in client.requests.values() if p.done]
    assert len(done) == 3
    assert all(p.result.get("ok") for p in done)


def test_staff_reporter_skips_while_inactive():
    world, city, tis = _city_world()
    client = world.add_host("staff", world.cells[0])
    world.run(until=0.5)
    world.hosts["staff"].deactivate()
    reporter = StaffReporter(world.sim, client, city,
                             world.rng.stream("staff"),
                             service="tis.tis0", period=1.0)
    reporter.start()
    world.run(until=5.0)
    reporter.stop()
    assert reporter.reports_sent == 0


def test_citizen_workload_issues_queries():
    world, city, tis = _city_world()
    client = world.add_host("citizen", world.cells[1])
    workload = CitizenWorkload(world.sim, client, city,
                               world.rng.stream("citizen"),
                               service="tis.tis0",
                               mean_interarrival=2.0, locality=0.8,
                               max_requests=5)
    workload.start()
    world.run(until=60.0)
    workload.stop()
    world.run_until_idle()
    assert workload.stats.issued == 5
    assert sum(r.done for r in workload.stats.requests) == 5
    assert len(workload.stats.latencies()) == 5


def test_home_subscription_fires_on_change():
    world, city, tis = _city_world()
    client = world.add_host("citizen", world.cells[0])
    world.run(until=0.5)
    sub = client.subscribe("tis.tis0", {
        "region": city.local_region(world.cells[0]), "threshold": 1.0})
    world.run(until=1.0)
    region = city.local_region(world.cells[0])
    tis.apply_external_update(region, 5.0)
    world.run(until=2.0)
    assert len(sub.notifications) == 1
    assert sub.notifications[0]["region"] == region
    tis.owner_of(region).end_subscription(sub.request_id)
    world.run_until_idle()
