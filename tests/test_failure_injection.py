"""MSS crash/restart exploration.

The paper assumes MSSs never fail (assumption 2).  These tests break
that assumption on purpose and check what the recovery extensions
(registration nacks, proxy-gone bounces, client retries) can absorb.
"""

from __future__ import annotations

import pytest

from repro.core.protocol import (
    DeregAckMsg,
    GreetMsg,
    JoinMsg,
    ProxyMigrateRequestMsg,
    ProxyMoveMsg,
    RequestMsg,
    UpdateCurrentLocMsg,
)
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.types import NodeId, ProxyId

from tests.conftest import make_world
from tests.test_mss_handoff_table import MH, Station


def test_crash_loses_registration_and_nack_recovers():
    world = make_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    world.run(until=1.0)
    assert host.registered

    station = world.stations[world.cells[0]]
    station.crash()
    station.restart()
    assert station.pref_of(host.node_id) is None
    assert host.registered  # the MH has no idea yet

    # The next request is dropped, nacked, re-registered, retried, served.
    p = client.request("echo", "after-crash")
    world.run(until=20.0)
    assert p.done and p.result == "after-crash"
    assert world.metrics.count("registration_nacks") >= 1
    assert world.metrics.count("mh_reregistrations") >= 1
    assert station.pref_of(host.node_id) is not None
    world.run_until_idle()


def test_crash_of_proxy_host_recovered_by_retry():
    """The proxy (and its pending request) dies with its MSS; the client
    retry builds a fresh proxy and the request completes."""
    world = make_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0], retry_interval=3.0)
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=1.0)
    # Move away so the proxy (at s0) and the respMss (s1) differ.
    host.migrate_to(world.cells[1])
    world.run(until=2.0)
    world.stations[world.cells[0]].crash()
    world.stations[world.cells[0]].restart()
    # The original server-side work still answers, but to a dead proxy.
    server.release(p.request_id, "lost")
    world.run(until=30.0)
    # A retry re-drove the request through proxy-gone recovery: the
    # dangling pref was cleared, a fresh proxy re-issued the request, and
    # it is waiting at the (manual) server again.
    assert world.metrics.count("stale_proxy_messages") >= 1
    assert world.metrics.count("prefs_cleared_dangling") >= 1
    assert p.request_id in server.held
    server.release(p.request_id, "recovered")
    world.run(until=60.0)
    assert p.done and p.result == "recovered"


def test_crash_respmss_with_colocated_proxy():
    world = make_world()
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0], retry_interval=3.0)
    p = client.request("manual", "y")
    world.run(until=1.0)
    world.stations[world.cells[0]].crash()
    world.stations[world.cells[0]].restart()
    world.run(until=30.0)
    server.release(p.request_id, "answer")
    world.run(until=60.0)
    assert p.done
    world.run_until_idle()


def test_unaffected_hosts_keep_working_through_peer_crash():
    world = make_world()
    world.add_server("echo")
    a = world.add_host("a", world.cells[0], retry_interval=2.0)
    b = world.add_host("b", world.cells[2], retry_interval=2.0)
    world.run(until=1.0)
    world.stations[world.cells[0]].crash()
    world.stations[world.cells[0]].restart()
    pa = a.request("echo", 1)
    pb = b.request("echo", 2)
    world.run(until=20.0)
    assert pa.done and pb.done
    world.run_until_idle()


def _migrating(s: Station) -> None:
    """Let s0 pull every remote proxy over (any distance is too far)."""
    s.s0.config.proxy_migrate_distance = 0.0
    s.s0.config.station_distance = lambda a, b: 1.0


def test_crash_leaves_no_per_mh_or_per_proxy_residue():
    """crash() loses all volatile memory: every per-MH entry (with its
    failure counts, armed probe and migration flag), every proxy and
    every forwarding stub."""
    s = Station()
    _migrating(s)
    s.local_with_proxy(3)                       # local, migration in flight
    moving, staying, failed = (NodeId(f"mh:{n}") for n in "ywz")
    for mh in (moving, staying):                # one local proxy each
        s.deliver(JoinMsg(mh=mh, seq=1))
        s.deliver(RequestMsg(mh=mh, request_id=f"{mh}-r1", service="echo"))
    moved = next(iter(s.s0.proxies))
    s.deliver(ProxyMigrateRequestMsg(mh=moving, proxy_id=moved,
                                     new_proxy_id=ProxyId("pxFar")), "s1")
    assert moved in s.s0._proxy_stubs           # moved away: a stub
    assert s.s0.proxies
    s.deliver(GreetMsg(mh=failed, old_mss=s.node("s1"), seq=1))
    s.deliver(DeregAckMsg(mh=failed, seq=1, found=False), "s1")  # failure 1
    s.deliver(GreetMsg(mh=failed, old_mss=s.node("s1"), seq=2))  # probe armed

    s.s0.crash()
    assert s.s0.entries == {}
    assert s.s0.proxies == {}
    assert s.s0._proxy_stubs == {}


def test_pre_crash_probe_neither_fires_nor_disarms_the_new_chain():
    s = Station()
    s.greet("s1", 3)                      # probe chain armed for t=5
    s.run(until=1.0)
    s.s0.crash()
    s.s0.restart()
    s.run(until=2.0)
    s.greet("s1", 4)                      # a fresh acquisition: t=7, 12
    s.run(until=13.0)
    probes = [t for t, line in zip(s.times, s.sent) if line.endswith("seq=4")]
    assert probes == [2.0, 7.0, 12.0]
    assert len(s.sent) == 4               # the first dereg plus these three
    assert s.world.metrics.count("handoff_probes") == 2


def test_failed_chases_are_forgotten_by_a_crash():
    """Blind registration needs two failed chases for one seq *in this
    station's memory*; a crash between them resets the count."""
    s = Station()
    s.in_cell()
    s.greet("s1", 3)
    s.deregack("s1", 3, False)
    s.s0.crash()
    s.s0.restart()
    s.greet("s1", 3)
    s.deregack("s1", 3, False)
    assert s.world.metrics.count("handoffs_aborted") == 2
    assert s.world.metrics.count("blind_re_registrations") == 0


def test_stub_does_not_survive_a_crash():
    s = Station()
    s.join(1)
    s.deliver(RequestMsg(mh=MH, request_id="r1", service="echo"))
    moved = next(iter(s.s0.proxies))
    s.deliver(ProxyMigrateRequestMsg(mh=MH, proxy_id=moved,
                                     new_proxy_id=ProxyId("pxFar")), "s1")
    s.s0.crash()
    s.s0.restart()
    s.sent.clear()
    s.deliver(UpdateCurrentLocMsg(mh=MH, proxy_id=moved,
                                  new_mss=s.node("s2")), "s2")
    assert s.sent == []
    assert s.world.metrics.count("stub_forwards") == 0
    assert s.world.metrics.count("stale_proxy_messages") == 1


def test_migration_in_flight_does_not_survive_a_crash():
    s = Station()
    _migrating(s)
    s.local_with_proxy(3)
    assert s.sent[-1] == "s2 proxy_migrate_request proxy_id=pxA"
    s.s0.crash()
    s.s0.restart()
    s.local_with_proxy(5)                # acquired again after the restart
    assert s.sent[-1] == "s2 proxy_migrate_request proxy_id=pxA"
    assert s.world.metrics.count("proxy_migrations_started") == 2


def test_proxy_move_after_a_restart_still_installs_the_proxy():
    """A move answered after the requester crashed is handled as any
    other: the state arrives and a proxy is built from it."""
    s = Station()
    _migrating(s)
    s.local_with_proxy(3)
    s.s0.crash()
    s.s0.restart()
    s.deliver(ProxyMoveMsg(mh=MH, new_proxy_id=ProxyId("pxNew"),
                           state={"records": [], "completed": set()}), "s2")
    assert ProxyId("pxNew") in s.s0.proxies
    assert s.world.metrics.count("proxies_moved_in") == 1


def test_nack_not_sent_during_legitimate_handoff():
    """The nack must not fire for the transient unknown-MH window of a
    normal hand-off (the registration is already on its way)."""
    world = make_world()
    world.add_server("slow", EchoServer, service_time=ConstantLatency(2.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    world.sim.schedule(0.5, host.migrate_to, world.cells[1])
    world.run_until_idle()
    assert world.metrics.count("registration_nacks") == 0
