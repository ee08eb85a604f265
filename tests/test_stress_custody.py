"""Custody-chain stress tests.

The hand-off protocol's hardest regime is residence time *below* the
hand-off latency: greets, deregs and deregacks from several incarnations
overlap.  These tests (including a hypothesis property) hammer that
regime and assert the custody chain never loses the pref, never forks,
and the MH always ends up registered with its requests delivered.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import LatencySpec, WorldConfig
from repro.experiments.harness import drain
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer
from repro.world import World

from tests.conftest import make_world
from tests.invariants import assert_invariants, attach_oracle


def _bounce_world(proc_delay: float = 0.0, ordering: str = "causal",
                  seed: int = 0) -> World:
    return World(WorldConfig(
        seed=seed,
        n_cells=4,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        proc_delay=proc_delay,
        ordering=ordering,
    ))


def test_rapid_bounce_storm_deterministic():
    """A scripted storm: 40 migrations at 3ms intervals (hand-off takes
    ~25ms), bouncing back and forth, with a slow request pending."""
    world = _bounce_world()
    oracle = attach_oracle(world)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(2.0))
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    world.sim.schedule(0.05, client.request, "slow", 1)
    for i in range(40):
        target = world.cells[i % 2]  # bounce cell1 <-> cell0
        world.sim.schedule(0.2 + 0.003 * (i + 1), host.migrate_to,
                           world.cells[(i + 1) % 2])
    world.run(until=30.0)
    drain(world)
    assert host.registered
    assert list(client.requests.values())[0].done
    assert_invariants(world, oracle)


def test_bounce_storm_with_busy_stations():
    world = _bounce_world(proc_delay=0.006)
    oracle = attach_oracle(world)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(1.0))
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    world.sim.schedule(0.05, client.request, "slow", 1)
    for i in range(30):
        world.sim.schedule(0.2 + 0.004 * (i + 1), host.migrate_to,
                           world.cells[(i + 1) % 3])
    world.run(until=60.0)
    drain(world)
    assert list(client.requests.values())[0].done
    assert_invariants(world, oracle)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    gaps=st.lists(st.floats(min_value=0.001, max_value=0.05),
                  min_size=3, max_size=20),
    cells=st.lists(st.integers(min_value=0, max_value=3),
                   min_size=3, max_size=20),
    proc_delay=st.sampled_from([0.0, 0.003, 0.008]),
    seed=st.integers(min_value=0, max_value=2),
)
def test_custody_survives_arbitrary_bounce_schedules(gaps, cells, proc_delay,
                                                     seed):
    """Arbitrary sub-hand-off-latency migration schedules: the pref must
    follow the MH, requests complete, custody never forks."""
    world = _bounce_world(proc_delay=proc_delay, seed=seed)
    oracle = attach_oracle(world)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(0.8))
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    world.sim.schedule(0.05, client.request, "slow", "payload")
    at = 0.2
    for gap, cell in zip(gaps, cells):
        at += gap
        world.sim.schedule(at, lambda c=world.cells[cell]: (
            host.migrate_to(c) if host.state.value == "active"
            and host.current_cell != c else None))
    world.run(until=60.0)
    drain(world)
    assert host.registered
    assert all(p.done for p in client.requests.values())
    # Exactly one station owns the MH.
    owners = [s for s in world.stations.values()
              if s.pref_of(host.node_id) is not None]
    assert len(owners) == 1
    assert_invariants(world, oracle)


def test_many_hosts_bouncing_together():
    world = _bounce_world(seed=3)
    oracle = attach_oracle(world)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(1.5))
    clients = []
    for i in range(6):
        client = world.add_host(f"m{i}", world.cells[i % 4],
                                retry_interval=2.0)
        clients.append(client)
        world.sim.schedule(0.05, client.request, "slow", i)
        host = world.hosts[f"m{i}"]
        for j in range(15):
            world.sim.schedule(
                0.2 + 0.005 * (j + 1) + 0.001 * i,
                lambda h=host, c=world.cells[(i + j + 1) % 4]: (
                    h.migrate_to(c) if h.current_cell != c else None))
    world.run(until=60.0)
    drain(world)
    for client in clients:
        assert all(p.done for p in client.requests.values())
    assert_invariants(world, oracle)
