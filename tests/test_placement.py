"""Tests for proxy placement policies."""

from __future__ import annotations

import pytest

from repro.core.placement import CurrentCellPlacement, HomeMssPlacement
from repro.errors import ConfigError
from repro.net.latency import ConstantLatency
from repro.types import NodeId

from tests.conftest import make_world


def test_current_cell_placement_returns_resp_mss():
    policy = CurrentCellPlacement()
    assert policy.place(NodeId("mh:m"), NodeId("mss:a")) == NodeId("mss:a")


def test_home_placement_uses_table():
    policy = HomeMssPlacement({NodeId("mh:m"): NodeId("mss:home")})
    assert policy.place(NodeId("mh:m"), NodeId("mss:away")) == NodeId("mss:home")
    with pytest.raises(ConfigError):
        policy.place(NodeId("mh:unknown"), NodeId("mss:away"))


def test_home_placement_needs_table():
    with pytest.raises(ConfigError):
        HomeMssPlacement({})


def test_least_loaded_picks_minimum_with_deterministic_ties():
    world = make_world(placement="least_loaded", n_cells=3)
    policy = world.stations[world.cells[0]].placement
    ids = sorted(world.station_ids())
    # No load yet: ties break by node id, and each placement adds load.
    assert [policy.place(NodeId("mh:m"), ids[-1]) for _ in ids] == ids


def test_world_home_placement_creates_proxy_at_home():
    world = make_world(placement="home", persistent_proxies=True)
    world.add_server("slow", service_time=ConstantLatency(1.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.run(until=0.5)
    host.migrate_to(world.cells[2])   # move away from home first
    world.run(until=1.0)
    p = client.request("slow", 1)
    world.run_until_idle()
    assert p.done
    home_station = world.stations[world.cells[0]]
    assert len(home_station.proxies) == 1  # proxy at home, not at cell2
    assert world.metrics.count("remote_proxy_creations") == 1


def test_world_home_placement_proxy_is_persistent():
    world = make_world(placement="home", persistent_proxies=True)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p1 = client.request("echo", 1)
    world.run_until_idle()
    p2 = client.request("echo", 2)
    world.run_until_idle()
    assert p1.done and p2.done
    assert world.metrics.count("proxies_created") == 1
    assert world.metrics.count("proxies_deleted") == 0
    assert world.live_proxy_count() == 1


def test_world_least_loaded_placement_spreads_proxies():
    world = make_world(placement="least_loaded", n_cells=3)
    world.add_server("echo")
    clients = [world.add_host(f"m{i}", world.cells[0]) for i in range(6)]
    world.run(until=1.0)
    for c in clients:
        c.request("echo", 1)
    world.run_until_idle()
    created = world.metrics.per_node("proxies_created")
    assert len(created) >= 2  # not all at the same MSS


def test_remote_creation_queues_concurrent_requests():
    world = make_world(placement="home", persistent_proxies=True)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.run(until=0.5)
    host.migrate_to(world.cells[2])
    world.run(until=1.0)
    # Two requests back to back: the second arrives while the remote
    # proxy creation is still in flight and must be queued, not doubled.
    p1 = client.request("echo", 1)
    p2 = client.request("echo", 2)
    world.run_until_idle()
    assert p1.done and p2.done
    assert world.metrics.count("proxies_created") == 1
