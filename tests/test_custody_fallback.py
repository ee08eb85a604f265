"""Scripted tests for the lost-greet custody fallback (DESIGN.md §7.4).

The wireless loss probability is toggled around specific transmissions
to lose exactly the messages the scenario needs lost.
"""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer

from tests.conftest import make_world


def _lose_next_window(world, start, duration=0.05):
    """Drop every wireless transmission sent in [start, start+duration]."""
    def on() -> None:
        world.wireless.loss_probability = 0.999999
    def off() -> None:
        world.wireless.loss_probability = 0.0
    world.sim.schedule_at(start, on)
    world.sim.schedule_at(start + duration, off)


def test_lost_greet_fallback_finds_confirmed_owner():
    """greet to s1 lost; MH moves on to s2; s2's dereg to s1 fails and
    the fallback dereg reaches the true owner s0."""
    world = make_world(n_cells=3)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")           # proxy + pref at s0
    world.run(until=0.5)

    _lose_next_window(world, 1.0)
    world.sim.schedule_at(1.01, host.migrate_to, world.cells[1])  # greet lost
    # Move on before the 1s greet retry fires:
    world.sim.schedule_at(1.5, host.migrate_to, world.cells[2])
    world.run(until=5.0)

    assert world.metrics.count("handoff_fallback_deregs") == 1
    s2 = world.stations[world.cells[2]]
    assert host.registered
    pref = s2.pref_of(host.node_id)
    assert pref is not None and pref.ref is not None   # custody arrived
    server.release(p.request_id, "found-you")
    world.run_until_idle()
    assert p.done and p.result == "found-you"


def test_lost_greet_then_reactivation_uses_fallback():
    """greet to s1 lost; MH naps and wakes in s1's cell: the reactivation
    greet hits an MSS that has never heard of it — the candidate list
    lets s1 fetch the state from s0 instead of registering blind."""
    world = make_world(n_cells=3)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.5)

    _lose_next_window(world, 1.0)
    world.sim.schedule_at(1.01, host.migrate_to, world.cells[1])  # lost
    world.sim.schedule_at(1.02, host.deactivate)
    world.run(until=2.0)
    host.activate()    # greet(old=s1) at s1, candidates include s0
    world.run(until=6.0)

    s1 = world.stations[world.cells[1]]
    pref = s1.pref_of(host.node_id)
    assert pref is not None and pref.ref is not None
    # Exactly one station owns it (no blind double-registration).
    owners = [s for s in world.stations.values()
              if s.pref_of(host.node_id) is not None]
    assert len(owners) == 1
    server.release(p.request_id, "ok")
    world.run_until_idle()
    assert p.done


def test_fallback_exhaustion_aborts_cleanly():
    """When no candidate owns the state either, the acquisition aborts
    and the retrying greet eventually re-drives registration."""
    world = make_world(n_cells=4)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    world.run(until=0.5)
    # Lose TWO consecutive greets so both announcement and history lie.
    _lose_next_window(world, 1.0)
    world.sim.schedule_at(1.01, host.migrate_to, world.cells[1])
    world.run(until=1.1)
    _lose_next_window(world, 1.2)
    world.sim.schedule_at(1.21, host.migrate_to, world.cells[2])
    world.run(until=1.3)
    world.sim.schedule_at(1.4, host.migrate_to, world.cells[3])
    world.run(until=10.0)
    # However the chase resolved, the MH must end registered exactly once
    # and able to complete requests.
    owners = [s for s in world.stations.values()
              if s.pref_of(host.node_id) is not None]
    assert len(owners) == 1
    assert host.registered
    p = client.request("echo", "after-chaos")
    world.run(until=20.0)
    assert p.done
    world.run_until_idle()


def test_no_fallback_traffic_in_clean_runs():
    world = make_world(n_cells=4)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(1.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    for i, t in enumerate((0.5, 1.0, 1.5)):
        world.sim.schedule(t, host.migrate_to, world.cells[i + 1])
    world.run_until_idle()
    assert world.metrics.count("handoff_fallback_deregs") == 0
    assert world.metrics.count("reactivation_of_unknown_mh") == 0
