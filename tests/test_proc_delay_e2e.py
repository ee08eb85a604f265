"""End-to-end runs with per-message MSS processing time.

``proc_delay > 0`` turns every MSS into a queueing server (the regime
where the Ack-priority rule matters).  The whole protocol must behave
identically apart from latency.
"""

from __future__ import annotations

import pytest

from repro.experiments.harness import drain
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer

from tests.conftest import make_world
from tests.invariants import assert_invariants, attach_oracle


@pytest.mark.parametrize("proc_delay", [0.0, 0.002, 0.01])
def test_request_roundtrip_under_proc_delay(proc_delay):
    world = make_world(proc_delay=proc_delay)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p = client.request("echo", 1)
    world.run_until_idle()
    assert p.done
    assert world.live_proxy_count() == 0


@pytest.mark.parametrize("proc_delay", [0.002, 0.01])
def test_migration_during_queueing(proc_delay):
    world = make_world(proc_delay=proc_delay)
    oracle = attach_oracle(world)
    world.add_server("slow", EchoServer, service_time=ConstantLatency(1.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    world.sim.schedule(0.5, host.migrate_to, world.cells[1])
    world.sim.schedule(1.05, host.migrate_to, world.cells[2])
    world.run_until_idle()
    assert list(client.requests.values())[0].done
    assert_invariants(world, oracle)
    assert world.live_proxy_count() == 0


def test_proc_delay_inflates_latency():
    def roundtrip(proc_delay):
        world = make_world(proc_delay=proc_delay)
        world.add_server("echo")
        client = world.add_host("m", world.cells[0])
        world.run(until=1.0)
        p = client.request("echo", 1)
        world.run_until_idle()
        return p.latency

    assert roundtrip(0.02) > roundtrip(0.0) + 0.04  # several hops queue


def test_burst_under_queueing_all_delivered():
    world = make_world(proc_delay=0.004)
    oracle = attach_oracle(world)
    world.add_server("echo")
    clients = [world.add_host(f"m{i}", world.cells[i % 3], retry_interval=3.0)
               for i in range(5)]
    world.run(until=1.0)
    pendings = [c.request("echo", i) for c in clients for i in range(4)]
    world.run(until=30.0)
    drain(world)
    assert all(p.done for p in pendings)
    assert_invariants(world, oracle)
