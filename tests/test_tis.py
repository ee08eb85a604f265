"""Tests for the Traffic Information Server network."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigError
from repro.mobility.cellmap import bfs
from repro.net.latency import ConstantLatency
from repro.servers.tis_network import TisNetwork

from tests.conftest import make_world


def _build_tis(world, use_routing=True, cache_ttl=0.0, lookup_timeout=5.0):
    return TisNetwork(
        world.sim, world.wired, world.directory,
        partitions={
            "tisA": ["r1", "r2"],
            "tisB": ["r3", "r4"],
            "tisC": ["r5"],
        },
        overlay_edges=[("tisA", "tisB"), ("tisB", "tisC")],
        instruments=world.instruments,
        service_time=ConstantLatency(0.02),
        use_routing=use_routing,
        cache_ttl=cache_ttl,
        lookup_timeout=lookup_timeout,
    )


def test_partition_validation(world):
    with pytest.raises(ConfigError):
        TisNetwork(world.sim, world.wired, world.directory,
                   partitions={"a": ["r1"], "b": ["r1"]},
                   overlay_edges=[("a", "b")])
    with pytest.raises(ConfigError):
        TisNetwork(world.sim, world.wired, world.directory,
                   partitions={"a": ["r1"]}, overlay_edges=[("a", "ghost")])


def test_directory_entries(world):
    tis = _build_tis(world)
    assert world.directory.lookup("tis.tisA") == tis.servers["tisA"].node_id
    assert world.directory.contains("tis")
    assert tis.owner_of("r3").name == "tisB"
    assert tis.regions() == ["r1", "r2", "r3", "r4", "r5"]


def test_local_query(world):
    tis = _build_tis(world)
    tis.apply_external_update("r1", 7.0)
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "query", "region": "r1"})
    world.run_until_idle()
    assert p.result["level"] == 7.0
    assert p.result["region"] == "r1"


def test_remote_query_routes_through_overlay(world):
    tis = _build_tis(world)
    tis.apply_external_update("r5", 3.0)
    client = world.add_host("m", world.cells[0])
    # Ask tisA about a region owned by tisC: two overlay hops away.
    p = client.request("tis.tisA", {"op": "query", "region": "r5"})
    world.run_until_idle()
    assert p.result["level"] == 3.0
    assert tis.servers["tisA"].remote_lookups == 1


def test_remote_query_by_flooding(world):
    tis = _build_tis(world, use_routing=False)
    tis.apply_external_update("r5", 4.0)
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "query", "region": "r5"})
    world.run_until_idle()
    assert p.result["level"] == 4.0


def test_query_unknown_region_times_out(world):
    tis = _build_tis(world, use_routing=False, lookup_timeout=1.0)
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "query", "region": "atlantis"})
    world.run_until_idle()
    assert "error" in p.result


def test_remote_update_routed_to_owner(world):
    tis = _build_tis(world)
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "update", "region": "r4",
                                    "level": 9.5})
    world.run_until_idle()
    assert p.result["ok"] is True
    assert tis.level_of("r4") == 9.5
    assert p.result["version"] == 2


def test_update_bumps_version(world):
    tis = _build_tis(world)
    v1 = tis.apply_external_update("r1", 1.0)
    v2 = tis.apply_external_update("r1", 2.0)
    assert v2 == v1 + 1


def test_replication_populates_neighbor_caches(world):
    tis = _build_tis(world, cache_ttl=100.0)
    tis.apply_external_update("r3", 6.0)   # owner tisB replicates to A, C
    world.run_until_idle()
    assert tis.servers["tisA"].cache["r3"].level == 6.0
    assert tis.servers["tisC"].cache["r3"].level == 6.0


def test_cached_query_avoids_overlay(world):
    tis = _build_tis(world, cache_ttl=100.0)
    tis.apply_external_update("r3", 6.0)
    world.run_until_idle()
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "query", "region": "r3"})
    world.run_until_idle()
    assert p.result["level"] == 6.0
    assert tis.servers["tisA"].remote_lookups == 0
    assert tis.servers["tisA"].cache_hits == 1


def test_stale_cache_falls_back_to_overlay(world):
    tis = _build_tis(world, cache_ttl=0.5)
    tis.apply_external_update("r3", 6.0)
    world.run(until=10.0)  # let the replica age out
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "query", "region": "r3"})
    world.run_until_idle()
    assert p.result["level"] == 6.0
    assert tis.servers["tisA"].remote_lookups == 1


def test_subscription_on_owned_region(world):
    tis = _build_tis(world)
    client = world.add_host("m", world.cells[0])
    sub = client.subscribe("tis.tisA", {"region": "r1", "threshold": 2.0})
    world.run(until=1.0)
    tis.apply_external_update("r1", 5.0)   # jump of 5 >= 2 -> notify
    world.run(until=2.0)
    tis.apply_external_update("r1", 5.5)   # change of 0.5 < 2 -> silent
    world.run(until=3.0)
    tis.apply_external_update("r1", 9.0)   # change of 3.5 -> notify
    world.run(until=4.0)
    assert len(sub.notifications) == 2
    assert sub.notifications[-1]["level"] == 9.0
    tis.servers["tisA"].end_subscription(sub.request_id, "closed")
    world.run_until_idle()
    assert not sub.active


def test_subscriber_receives_despite_migration(world):
    tis = _build_tis(world)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    sub = client.subscribe("tis.tisA", {"region": "r1", "threshold": 1.0})
    world.run(until=1.0)
    host.migrate_to(world.cells[2])
    world.run(until=2.0)
    tis.apply_external_update("r1", 8.0)
    world.run(until=3.0)
    assert len(sub.notifications) == 1
    tis.servers["tisA"].end_subscription(sub.request_id)
    world.run_until_idle()


def test_unknown_tis_operation(world):
    _build_tis(world)
    client = world.add_host("m", world.cells[0])
    p = client.request("tis.tisA", {"op": "dance"})
    world.run_until_idle()
    assert "error" in p.result


@pytest.mark.parametrize("edges, via", [
    ([("A", "B"), ("B", "C"), ("C", "D"), ("D", "A")], "B"),
    ([("D", "A"), ("C", "D"), ("B", "C"), ("A", "B")], "D"),
])
def test_equal_length_routes_go_via_the_first_inserted_neighbor(world, edges, via):
    tis = TisNetwork(world.sim, world.wired, world.directory,
                     partitions={"A": ["ra"], "B": ["rb"], "C": ["rc"],
                                 "D": ["rd"]},
                     overlay_edges=edges)
    a = tis.servers["A"]
    assert a.routes["rc"] == tis.servers[via].node_id
    assert a.neighbors == [tis.servers["B"].node_id, tis.servers["D"].node_id]


def test_overlay_bfs_matches_networkx_shortest_paths():
    nx = pytest.importorskip("networkx")
    for seed in range(250):
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(1, 12))]
        edges = [(a, b) for a in nodes for b in nodes
                 if a <= b and rng.random() < 0.35]
        edges += rng.sample(edges, len(edges) // 4)   # repeats, either way round
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
        rng.shuffle(edges)
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        adjacency = {node: {} for node in nodes}
        for a, b in edges:
            graph.add_edge(a, b)
            adjacency[a][b] = adjacency[b][a] = None
        for source, paths in nx.all_pairs_shortest_path(graph):
            expected = {target: (len(path) - 1, path[min(1, len(path) - 1)])
                        for target, path in paths.items()}
            assert bfs(adjacency, source) == expected, (seed, source, edges)
