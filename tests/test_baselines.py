"""Tests for the three baselines: direct, Mobile-IP-style, I-TCP-style."""

from __future__ import annotations

import pytest

from repro.baselines.direct import DirectDeliveryMss
from repro.baselines.itcp_like import ItcpLikeMss, MhImage, StoredResult
from repro.baselines.mobile_ip import mobile_ip_config
from repro.config import WorldConfig
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.world import World

from tests.conftest import make_world


def make_direct_world(**overrides):
    world = make_world(**overrides)
    return World(world.config, mss_class=DirectDeliveryMss)


def make_itcp_world(**overrides):
    world = make_world(**overrides)
    return World(world.config, mss_class=ItcpLikeMss)


# -- direct ----------------------------------------------------------------------

def test_direct_delivers_to_stationary_host():
    world = make_direct_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p = client.request("echo", 1)
    world.run_until_idle()
    assert p.done and p.result == 1
    assert world.live_proxy_count() == 0  # no proxies at all


def test_direct_loses_result_on_migration():
    world = make_direct_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", 1)
    world.run(until=0.5)
    host.migrate_to(world.cells[1])
    world.run(until=1.0)
    server.release(p.request_id)
    world.run_until_idle()
    assert not p.done
    assert world.metrics.count("direct_results_lost") == 1


def test_direct_loses_result_while_inactive():
    world = make_direct_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    p = client.request("manual", 1)
    world.run(until=0.5)
    world.hosts["m"].deactivate()
    server.release(p.request_id)
    world.run(until=1.0)
    world.hosts["m"].activate()
    world.run_until_idle()
    assert not p.done  # nothing stored, nothing re-sent


# -- Mobile-IP style ---------------------------------------------------------------

def test_mobile_ip_config_derivation():
    cfg = mobile_ip_config(WorldConfig(n_cells=4))
    assert cfg.placement == "home"
    assert cfg.persistent_proxies is True
    assert cfg.n_cells == 4


def test_mobile_ip_rendezvous_stays_home():
    world = World(mobile_ip_config(make_world().config))
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.run(until=0.5)
    for cell in (world.cells[1], world.cells[2]):
        host.migrate_to(cell)
        world.run(until=world.sim.now + 1.0)
        p = client.request("echo", cell)
        world.run(until=world.sim.now + 2.0)
        assert p.done
    home = world.stations[world.cells[0]]
    assert len(home.proxies) == 1  # all traffic rendezvoused at home
    assert world.metrics.count("proxies_deleted") == 0


# -- I-TCP style -------------------------------------------------------------------

def test_itcp_delivers_and_stores_at_respmss():
    world = make_itcp_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p = client.request("echo", 5)
    world.run_until_idle()
    assert p.done and p.result == 5
    station = world.stations[world.cells[0]]
    image = station.images.get(world.hosts["m"].node_id)
    assert image is not None and image.unacked_results == {}


def test_itcp_redelivers_after_migration():
    world = make_itcp_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    host.ack_delay = 5.0  # keep the result unacknowledged across the hop
    p = client.request("manual", "data")
    world.run(until=0.5)
    server.release(p.request_id)
    world.run(until=0.6)   # delivered once, ack still pending
    host.migrate_to(world.cells[1])
    world.run_until_idle()
    assert p.done
    assert world.metrics.count("itcp_redeliveries") >= 1


def test_itcp_handoff_ships_image_bytes():
    world = make_itcp_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    host.ack_delay = 5.0
    p = client.request("manual", 1)
    world.run(until=0.5)
    server.release(p.request_id, "R" * 2000)
    world.run(until=0.6)
    host.migrate_to(world.cells[1])
    world.run_until_idle()
    assert p.done
    assert world.monitor.bytes_of("deregack") > 2000


def test_itcp_in_flight_reply_chases_via_forwarding_pointer():
    world = make_itcp_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", 1)
    world.run(until=0.5)
    host.migrate_to(world.cells[1])
    world.run(until=1.0)   # handoff done; reply not yet sent
    server.release(p.request_id, "late")
    world.run_until_idle()
    assert p.done and p.result == "late"
    assert world.metrics.count("itcp_results_chased") >= 1
    s0 = world.stations[world.cells[0]]
    assert host.node_id in s0.forwarding_pointers  # the residue


def test_itcp_image_size_model():
    image = MhImage()
    assert image.size_bytes() == 0
    image.pending_requests["r1"] = "x" * 100
    image.unacked_results["r2"] = StoredResult(
        request_id="r2", delivery_id=1, payload="y" * 50)
    assert image.size_bytes() == (16 + 100) + (16 + 50)
