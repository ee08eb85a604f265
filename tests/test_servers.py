"""Tests for application servers: base behaviour, manual server,
subscriptions and group multicast."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer, TaggingServer
from repro.servers.multicast import GroupServer
from repro.servers.subscription import SubscriptionRegistry
from repro.types import NodeId, ProxyId, ProxyRef, RequestId

from tests.conftest import make_world


def test_server_registers_in_directory(world):
    server = world.add_server("echo")
    assert world.directory.lookup("echo") == server.node_id


def test_service_name_can_differ_from_server_name(world):
    server = world.add_server("box", EchoServer, service="compute.fast")
    assert world.directory.lookup("compute.fast") == server.node_id


def test_service_time_delays_reply(world):
    world.add_server("slow", EchoServer, service_time=ConstantLatency(2.0))
    client = world.add_host("m", world.cells[0])
    p = client.request("slow", "x")
    world.run(until=1.5)
    assert not p.done
    world.run_until_idle()
    assert p.done


def test_tagging_server_counts_serials(world):
    world.add_server("tag", TaggingServer)
    client = world.add_host("m", world.cells[0])
    p1 = client.request("tag", "a")
    world.run_until_idle()
    p2 = client.request("tag", "b")
    world.run_until_idle()
    assert p1.result["serial"] == 1
    assert p2.result["serial"] == 2
    assert p1.result["server"] == "tag"


def test_manual_server_release_order(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    p1 = client.request("manual", "first")
    p2 = client.request("manual", "second")
    world.run(until=1.0)
    assert len(server.held) == 2
    released = server.release_next()
    assert released == p1.request_id
    world.run_until_idle()
    assert p1.done and not p2.done
    server.release(p2.request_id, "custom")
    world.run_until_idle()
    assert p2.result == "custom"


def test_server_acks_when_enabled():
    world = make_world(send_server_acks=True)
    server = world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    client.request("echo", 1)
    world.run_until_idle()
    assert server.acks_received == 1


def test_unknown_service_produces_error_result(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    p = client.request("no-such-service", 1)
    world.run_until_idle()
    assert p.done
    assert "error" in p.result


# -- subscription registry -------------------------------------------------------

def test_subscription_registry_notify_and_close(world):
    s0 = world.stations[world.cells[0]]
    server = world.add_server("echo")
    registry = SubscriptionRegistry(server.node_id, world.wired)
    ref = ProxyRef(mss=s0.node_id, proxy_id=ProxyId("px"))
    registry.open(RequestId("sub1"), ref, {"topic": "t"})
    assert registry.notify(RequestId("sub1"), "hello") is True
    assert registry.notify(RequestId("ghost"), "x") is False
    assert len(registry) == 1
    assert registry.close(RequestId("sub1"), "bye") is True
    assert registry.close(RequestId("sub1")) is False
    world.run_until_idle()
    # The messages went to a nonexistent proxy: counted, not fatal.
    assert world.metrics.count("stale_proxy_messages") == 2


# -- group multicast ----------------------------------------------------------------

def _join_group(client, group="g"):
    return client.subscribe("groups", {"group": group})


def test_mcast_reaches_all_members(world):
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    c = world.add_host("c", world.cells[2])
    sub_a, sub_b = _join_group(a), _join_group(b)
    world.run(until=1.0)
    p = c.request("groups", {"op": "mcast", "group": "g", "data": "news"})
    world.run(until=2.0)
    assert p.done
    assert p.result["members"] == 2
    assert any(n.get("data") == "news" for n in sub_a.notifications)
    assert any(n.get("data") == "news" for n in sub_b.notifications)


def test_join_confirmation_is_first_notification(world):
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    sub = _join_group(a)
    world.run(until=1.0)
    assert sub.notifications and sub.notifications[0] == {"joined": "g"}


def test_member_in_other_cell_receives_reliably(world):
    """A member that migrated and slept still gets the multicast."""
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    sub_a = _join_group(a)
    world.run(until=1.0)
    host_a = world.hosts["a"]
    host_a.deactivate()
    p = b.request("groups", {"op": "mcast", "group": "g", "data": "wake-up"})
    world.run(until=2.0)
    assert p.done
    assert not any(n.get("data") == "wake-up" for n in sub_a.notifications)
    host_a.activate()
    host_a.migrate_to(world.cells[2])
    world.run(until=4.0)
    assert any(n.get("data") == "wake-up" for n in sub_a.notifications)
    world.run_until_idle()


def test_leave_group_ends_subscription(world):
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    sub = _join_group(a)
    world.run(until=1.0)
    p = a.request("groups", {"op": "leave", "group": "g",
                             "member": str(sub.request_id)})
    world.run_until_idle()
    assert p.done and p.result["ok"] is True
    assert not sub.active
    b = world.add_host("b", world.cells[0])
    world.run(until=world.sim.now + 1.0)
    p2 = b.request("groups", {"op": "mcast", "group": "g", "data": "x"})
    world.run_until_idle()
    assert p2.result["members"] == 0


def test_unknown_group_operation(world):
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    p = a.request("groups", {"op": "frobnicate"})
    world.run_until_idle()
    assert "error" in p.result
