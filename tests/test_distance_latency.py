"""Tests for distance-proportional wired latency."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.net.wired import WiredNetwork
from repro.servers.echo import EchoServer
from repro.sim import Simulator
from repro.types import NodeId

from tests.conftest import make_world
from tests.test_net_wired_wireless import _Ping, _StaticNode


def test_pairwise_delay_added(sim):
    def delay(src: NodeId, dst: NodeId) -> float:
        return 0.5 if (src, dst) == ("a", "b") else 0.0

    net = WiredNetwork(sim, latency=ConstantLatency(0.01),
                       pairwise_delay=delay)
    a, b = _StaticNode("a"), _StaticNode("b")
    net.attach(a)
    net.attach(b)
    net.send(a.node_id, b.node_id, _Ping())
    sim.run()
    assert sim.now == pytest.approx(0.51)
    net.send(b.node_id, a.node_id, _Ping())
    sim.run()
    assert sim.now == pytest.approx(0.52)  # reverse direction: no extra


def test_world_distance_delay_between_stations():
    world = make_world(n_cells=5, wired_distance_delay=0.1)
    s0 = world.stations[world.cells[0]].node_id
    s4 = world.stations[world.cells[4]].node_id
    # Line topology: cells at x = 0..4.
    assert world._distance_delay(s0, s4) == pytest.approx(0.4)
    assert world._distance_delay(s0, s0) == 0.0


def test_world_servers_sit_at_centroid():
    world = make_world(n_cells=5, wired_distance_delay=0.1)
    server = world.add_server("echo")
    s0 = world.stations[world.cells[0]].node_id
    # Centroid of x = 0..4 is 2.0.
    assert world._distance_delay(s0, server.node_id) == pytest.approx(0.2)


def test_request_latency_scales_with_distance():
    def latency_from(cell_index):
        world = make_world(n_cells=9, wired_distance_delay=0.05)
        world.add_server("echo", EchoServer,
                         service_time=ConstantLatency(0.01))
        client = world.add_host("m", world.cells[cell_index])
        world.run(until=1.0)
        p = client.request("echo", 1)
        world.run_until_idle()
        return p.latency

    # The proxy is local either way; only the proxy<->server legs differ.
    center = latency_from(4)   # at the centroid
    edge = latency_from(0)     # 4 units from the centroid
    assert edge > center + 0.3  # 2 legs x 4 units x 0.05
