"""Tests for proxy migration (the future-work extension)."""

from __future__ import annotations

import pytest

from repro.config import LatencySpec, WorldConfig
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.servers.multicast import GroupServer
from repro.world import World

from tests.conftest import proxies_of
from tests.invariants import assert_invariants, attach_oracle


def migration_world(distance=3.0, n_cells=8, **overrides):
    config = WorldConfig(
        n_cells=n_cells,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.005),
        wireless_latency=LatencySpec(kind="constant", mean=0.003),
        proxy_migrate_distance=distance,
        **overrides,
    )
    return World(config)


def _walk(world, host, start, stop):
    for i in range(start, stop):
        host.migrate_to(world.cells[i])
        world.run(until=world.sim.now + 1.0)


def test_proxy_follows_far_roaming_subscriber():
    world = migration_world()
    world.add_server("groups", GroupServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    sub = client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    _walk(world, host, 1, 8)
    assert world.metrics.count("proxies_moved_in") >= 1
    assert world.metrics.count("subscriptions_relocated") >= 1
    proxies = proxies_of(world, "m")
    assert len(proxies) == 1
    # The surviving proxy is within the threshold of the current station.
    station = world.stations[host.current_cell]
    assert world._station_distance(proxies[0].host.node_id,
                                   station.node_id) < 3.0


def test_no_migration_below_threshold():
    world = migration_world(distance=10.0)
    world.add_server("groups", GroupServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    _walk(world, host, 1, 8)
    assert world.metrics.count("proxy_migrations_started") == 0


def test_disabled_by_default():
    world = World(WorldConfig(n_cells=8, topology="line"))
    world.add_server("groups", GroupServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    _walk(world, host, 1, 8)
    assert world.metrics.count("proxy_migrations_started") == 0
    proxies = proxies_of(world, "m")
    assert proxies[0].host.node_id == world.stations[world.cells[0]].node_id


def test_pending_request_survives_move():
    """A request whose result is still at the server rides the move."""
    world = migration_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=1.0)
    _walk(world, host, 1, 6)
    assert world.metrics.count("proxies_moved_in") >= 1
    # The reply goes to the OLD address (the server's reply_to is stale):
    # the stub must chase it to the moved proxy.
    server.release(p.request_id, "late-answer")
    world.run(until=world.sim.now + 5.0)
    assert p.done and p.result == "late-answer"
    assert world.metrics.count("stub_forwards") >= 1
    world.run_until_idle()
    assert world.live_proxy_count() == 0


def test_unacked_result_resent_from_new_home():
    world = migration_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=1.0)
    host.deactivate()                      # miss the delivery
    server.release(p.request_id, "zzz")
    world.run(until=2.0)
    host.migrate_to(world.cells[5])        # carried while asleep
    host.activate()                        # wake far away -> move triggers
    world.run(until=world.sim.now + 10.0)
    assert p.done and p.result == "zzz"
    assert world.metrics.count("proxies_moved_in") == 1
    world.run_until_idle()
    assert world.live_proxy_count() == 0


def test_custody_invariants_hold_with_migration():
    world = migration_world()
    oracle = attach_oracle(world)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.3))
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    sub_server = world.add_server("groups", GroupServer)
    sub = client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    for i in list(range(1, 8)) + list(range(6, 0, -1)):
        client.request("echo", i)
        host.migrate_to(world.cells[i])
        world.run(until=world.sim.now + 0.8)
    world.run(until=world.sim.now + 10.0)
    assert all(p.done for p in client.requests.values())
    assert_invariants(world, oracle)


def test_migrate_request_for_vanished_proxy_is_answered():
    """A migrate request racing the proxy's deletion must not wedge the
    initiator's inflight marker."""
    world = migration_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("echo", 1)
    world.run_until_idle()                  # request done; proxy deleted
    assert p.done
    station = world.stations[host.current_cell]
    # Force an initiate against the stale (deleted) ref.
    from repro.types import ProxyId, ProxyRef
    pref = station.pref_of(host.node_id)
    pref.ref = ProxyRef(mss=world.stations[world.cells[5]].node_id,
                        proxy_id=ProxyId("ghost"))
    station._maybe_migrate_proxy(host.node_id)
    world.run_until_idle()
    assert world.metrics.count("proxy_migrate_misses") == 1
    assert not station.entries[host.node_id].migrating
