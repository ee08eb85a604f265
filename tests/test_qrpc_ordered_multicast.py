"""Tests for the QRPC outbox and the totally-ordered multicast."""

from __future__ import annotations

import pytest

from repro.hosts.qrpc import QueuedRpcClient
from repro.servers.echo import ManualServer
from repro.servers.ordered_multicast import (
    OrderedGroupServer,
    join_ordered_group,
    leave_ordered_group,
)

from tests.conftest import make_world


def _queued_client(world, name, cell, retry=None):
    client = world.add_host(name, cell, join=False)
    host = client.host
    qclient = QueuedRpcClient(host, retry_interval=retry)
    host.join(cell)
    return qclient, host


# -- QRPC -------------------------------------------------------------------------

def test_qrpc_queues_while_inactive(world):
    world.add_server("echo")
    qclient, host = _queued_client(world, "m", world.cells[0])
    world.run_until_idle()
    host.deactivate()
    p = qclient.request("echo", "later")   # would raise on a plain client
    assert len(qclient._outbox) == 1
    assert not p.done
    world.run(until=world.sim.now + 5.0)
    assert not p.done
    host.activate()
    world.run_until_idle()
    assert p.done and p.result == "later"
    assert len(qclient._outbox) == 0
    assert world.metrics.count("qrpc_queued") == 1
    assert world.metrics.count("qrpc_flushed") == 1


def test_qrpc_sends_immediately_when_connected(world):
    world.add_server("echo")
    qclient, host = _queued_client(world, "m", world.cells[0])
    world.run_until_idle()
    p = qclient.request("echo", "now")
    world.run_until_idle()
    assert p.done
    assert world.metrics.count("qrpc_queued") == 0


def test_qrpc_flushes_in_new_cell(world):
    """Queued while asleep, transmitted after waking in another cell."""
    world.add_server("echo")
    qclient, host = _queued_client(world, "m", world.cells[0])
    world.run_until_idle()
    host.deactivate()
    p1 = qclient.request("echo", 1)
    p2 = qclient.request("echo", 2)
    host.migrate_to(world.cells[2])   # carried while off
    host.activate()
    world.run_until_idle()
    assert p1.done and p2.done
    assert host.current_cell == world.cells[2]


def test_qrpc_retry_covers_lossy_uplink():
    world = make_world(wireless_loss=0.3, seed=9)
    world.add_server("echo")
    qclient, host = _queued_client(world, "m", world.cells[0], retry=2.0)
    world.run(until=5.0)
    host.deactivate()
    p = qclient.request("echo", "x")
    host.activate()
    world.run(until=120.0)
    assert p.done
    world.run_until_idle()


# -- ordered multicast ---------------------------------------------------------------

def test_ordered_multicast_total_order(world):
    world.add_server("ogroups", OrderedGroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    c = world.add_host("c", world.cells[2])
    ma = join_ordered_group(a, "ogroups", "g")
    mb = join_ordered_group(b, "ogroups", "g")
    world.run(until=1.0)
    for i in range(5):
        c.request("ogroups", {"op": "omcast", "group": "g", "data": f"m{i}"})
        world.run(until=world.sim.now + 0.5)
    world.run(until=10.0)
    assert ma.delivered == [f"m{i}" for i in range(5)]
    assert mb.delivered == ma.delivered
    assert ma.holdback_depth == 0


def test_ordered_multicast_order_survives_sleep(world):
    """A sleeping member misses several multicasts; redeliveries may
    arrive out of order, but hold-back restores the sequence."""
    world.add_server("ogroups", OrderedGroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    ma = join_ordered_group(a, "ogroups", "g")
    world.run(until=1.0)
    world.hosts["a"].deactivate()
    for i in range(4):
        b.request("ogroups", {"op": "omcast", "group": "g", "data": i})
        world.run(until=world.sim.now + 0.3)
    world.hosts["a"].migrate_to(world.cells[2])
    world.hosts["a"].activate()
    world.run(until=20.0)
    assert ma.delivered == [0, 1, 2, 3]
    assert ma.holdback_depth == 0


def test_ordered_multicast_two_senders_one_order(world):
    world.add_server("ogroups", OrderedGroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    c = world.add_host("c", world.cells[2])
    ma = join_ordered_group(a, "ogroups", "g")
    mc = join_ordered_group(c, "ogroups", "g")
    world.run(until=1.0)
    # Two senders interleave; the sequencer linearizes them.
    for i in range(3):
        a.request("ogroups", {"op": "omcast", "group": "g", "data": f"a{i}"})
        b.request("ogroups", {"op": "omcast", "group": "g", "data": f"b{i}"})
        world.run(until=world.sim.now + 0.4)
    world.run(until=10.0)
    assert len(ma.delivered) == 6
    assert ma.delivered == mc.delivered  # identical total order


def test_ordered_multicast_late_joiner_gets_history(world):
    world.add_server("ogroups", OrderedGroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    ma = join_ordered_group(a, "ogroups", "g")
    world.run(until=1.0)
    for i in range(3):
        b.request("ogroups", {"op": "omcast", "group": "g", "data": i})
        world.run(until=world.sim.now + 0.3)
    late = world.add_host("late", world.cells[2])
    ml = join_ordered_group(late, "ogroups", "g")
    world.run(until=world.sim.now + 1.0)
    b.request("ogroups", {"op": "omcast", "group": "g", "data": 99})
    world.run(until=world.sim.now + 2.0)
    assert ml.delivered == [0, 1, 2, 99]
    assert ma.delivered == [0, 1, 2, 99]


def test_ordered_multicast_leave(world):
    world.add_server("ogroups", OrderedGroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    ma = join_ordered_group(a, "ogroups", "g")
    world.run(until=1.0)
    p = leave_ordered_group(a, "ogroups", ma)
    world.run(until=world.sim.now + 2.0)
    assert p.done and p.result["ok"] is True
    assert not ma.subscription.active
    p2 = b.request("ogroups", {"op": "omcast", "group": "g", "data": "x"})
    world.run_until_idle()
    assert p2.result["members"] == 0
    assert ma.delivered == []


def test_qrpc_outbox_skips_completed(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], join=False)
    qclient = QueuedRpcClient(client.host)
    host = client.host
    host.join(world.cells[0])
    world.run_until_idle()
    host.deactivate()
    p = qclient.request("echo", 1)
    # Simulate an out-of-band completion before the flush.
    p.completed_at = world.sim.now
    host.activate()
    world.run_until_idle()
    assert world.metrics.count("qrpc_flushed") == 0


def test_ordered_multicast_with_proxy_migration():
    """A roaming ordered-group member whose proxy migrates mid-stream
    still observes the exact sequence."""
    world = make_world(n_cells=8, proxy_migrate_distance=3.0)
    server = world.add_server("og", OrderedGroupServer)
    member = world.add_host("member", world.cells[0])
    sender = world.add_host("sender", world.cells[4])
    host = world.hosts["member"]
    membership = join_ordered_group(member, "og", "g")
    world.run(until=1.0)

    for i in range(7):
        sender.request("og", {"op": "omcast", "group": "g", "data": i})
        world.run(until=world.sim.now + 0.5)
        if i < 7 - 1:
            host.migrate_to(world.cells[i + 1])
            world.run(until=world.sim.now + 0.5)

    world.run(until=world.sim.now + 15.0)
    assert world.metrics.count("proxies_moved_in") >= 1
    assert world.metrics.count("subscriptions_relocated") >= 1
    assert membership.delivered == list(range(7))
    assert membership.holdback_depth == 0
