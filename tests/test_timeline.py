"""Tests for the per-entity timeline view."""

from __future__ import annotations

from repro.analysis.timeline import extract_timeline, lane_summary, render_timeline
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer

from tests.conftest import make_world


def _scenario_world():
    world = make_world()
    world.add_server("slow", EchoServer, service_time=ConstantLatency(1.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    world.sim.schedule(0.5, host.migrate_to, world.cells[1])
    world.run_until_idle()
    return world


def test_timeline_covers_the_protocol_story():
    world = _scenario_world()
    events = extract_timeline(world.recorder)
    texts = [e.text for e in events]
    assert any(t.startswith("join") for t in texts)
    assert any(t.startswith("proxy_create") for t in texts)
    assert any(t.startswith("migrate") for t in texts)
    assert any(t.startswith("handoff_done") for t in texts)
    assert any(t.startswith("deliver") for t in texts)
    assert any(t.startswith("proxy_delete") for t in texts)
    times = [e.time for e in events]
    assert times == sorted(times)


def test_timeline_node_filter():
    world = _scenario_world()
    mh_events = extract_timeline(world.recorder, nodes=["mh:m"])
    assert mh_events and all(e.node == "mh:m" for e in mh_events)


def test_timeline_network_rows_optional():
    world = _scenario_world()
    quiet = extract_timeline(world.recorder)
    verbose = extract_timeline(world.recorder, include_network=True)
    assert len(verbose) > len(quiet)
    assert any("send" in e.text for e in verbose)


def test_render_and_summary():
    world = _scenario_world()
    events = extract_timeline(world.recorder)
    text = render_timeline(events, title="story")
    assert "story" in text and "handoff_done" in text
    summary = lane_summary(events)
    assert summary["mh:m"] >= 2
    assert render_timeline([], title="empty").endswith("(no events)")


def test_timeline_reports_crash_and_move():
    world = make_world(n_cells=8, proxy_migrate_distance=3.0)
    from repro.analysis.timeline import extract_timeline
    from repro.servers.multicast import GroupServer

    world.add_server("groups", GroupServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    for i in range(1, 6):
        host.migrate_to(world.cells[i])
        world.run(until=world.sim.now + 1.0)
    world.station(world.cells[0]).crash_and_restart()
    world.run(until=world.sim.now + 1.0)
    texts = [e.text for e in extract_timeline(world.recorder)]
    assert any(t.startswith("proxy_move") for t in texts)
    assert any("CRASH" in t for t in texts)
