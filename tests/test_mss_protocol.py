"""Integration tests for MSS behaviour: registration, hand-off, flag
machinery, Ack handling — driven through small worlds."""

from __future__ import annotations

import pytest

from repro.core.protocol import DeregMsg
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.types import MhState, NodeId

from tests.conftest import make_world


def test_join_registers_and_confirms(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    world.run_until_idle()
    host = world.hosts["m"]
    station = world.station(world.cells[0])
    assert host.registered
    assert station.pref_of(host.node_id) is not None
    assert host.resp_mss == station.node_id


def test_leave_deregisters(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    world.run_until_idle()
    world.hosts["m"].leave()
    world.run_until_idle()
    station = world.station(world.cells[0])
    assert station.pref_of(world.hosts["m"].node_id) is None
    assert world.hosts["m"].state is MhState.LEFT


def test_handoff_moves_registration_and_pref(world):
    world.add_server("slow", service_time=ConstantLatency(5.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    world.sim.schedule(1.0, host.migrate_to, world.cells[1])
    world.run(until=2.0)
    s0 = world.station(world.cells[0])
    s1 = world.station(world.cells[1])
    assert s0.pref_of(host.node_id) is None
    pref = s1.pref_of(host.node_id)
    assert pref is not None and pref.ref is not None
    assert pref.ref.mss == s0.node_id  # proxy stayed at creation site
    world.run_until_idle()


def test_update_currentloc_sent_only_with_proxy(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(1.0, host.migrate_to, world.cells[1])
    world.run_until_idle()
    # No pending request -> no proxy -> no update message.
    assert world.metrics.count("update_currentloc_sent") == 0


def test_rkpr_set_by_del_pref_and_reset_by_new_request(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    station = world.station(world.cells[0])
    p1 = client.request("manual", "a")
    world.run(until=0.5)
    server.release(p1.request_id)
    # Stop just after the result lands at the respMss (wired 10ms after
    # the release at 0.5) but before the MH's Ack returns (~0.52): RKpR
    # must be set (sole pending request).
    world.run(until=0.512)
    pref = station.pref_of(host.node_id)
    assert pref.rkpr is True
    world.run_until_idle()
    # The Ack then cleared the pref and deleted the proxy.
    assert pref.ref is None
    assert world.live_proxy_count() == 0


def test_new_request_resets_rkpr_keeps_proxy(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    host.ack_delay = 0.2  # window to slip a new request before the Ack
    station = world.station(world.cells[0])
    p1 = client.request("manual", "a")
    world.run(until=0.3)
    server.release(p1.request_id)
    world.run(until=0.45)           # result delivered, Ack pending
    p2 = client.request("manual", "b")
    world.run(until=0.46)
    assert station.pref_of(host.node_id).rkpr is False
    world.run(until=1.0)
    # AckA carried del-proxy=false: the proxy survives and serves B.
    assert world.live_proxy_count() == 1
    server.release(p2.request_id)
    world.run_until_idle()
    assert p1.done and p2.done
    assert world.metrics.count("proxies_created") == 1
    assert world.live_proxy_count() == 0


def test_ack_ignored_after_dereg(world):
    """Section 3.1: once the state transfer is served, Acks are dead."""
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    host.ack_delay = 0.004  # Ack trails the migration decision
    p1 = client.request("manual", "x")
    world.run(until=0.3)
    server.release(p1.request_id)
    # Result reaches the MH at ~0.315; its Ack fires at ~0.319.  Migrate
    # in between: the pending Ack is dropped (the MH now only talks to
    # the new MSS) and the proxy must retransmit after the update.
    world.run(until=0.317)
    host.migrate_to(world.cells[1])
    world.run_until_idle()
    assert p1.done
    # The proxy retransmitted after the location update.
    assert world.metrics.count("proxy_retransmissions") >= 1
    assert world.live_proxy_count() == 0


def test_results_for_absent_mh_are_recovered(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p1 = client.request("manual", "x")
    world.run(until=0.3)
    # Deliver the result while the MH is inactive: single downlink
    # attempt is dropped; the proxy re-sends on reactivation.
    host.deactivate()
    server.release(p1.request_id)
    world.run(until=1.0)
    assert not p1.done
    host.activate()
    world.run_until_idle()
    assert p1.done
    assert world.metrics.count("proxy_retransmissions") >= 1


def test_reactivation_same_cell_triggers_update(world):
    world.add_server("slow", service_time=ConstantLatency(3.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    world.sim.schedule(0.5, host.deactivate)
    world.sim.schedule(1.0, host.activate)
    world.run(until=2.0)
    assert world.metrics.count("reactivations") == 1
    assert world.metrics.count("update_currentloc_sent") == 1
    world.run_until_idle()


def test_stale_dereg_rejected_on_bounce(world):
    """A -> B -> A bounce: A keeps the state; B's hand-off is refused."""
    world.add_server("slow", service_time=ConstantLatency(5.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    # Bounce fast: to cell1 and back before the first hand-off completes.
    world.sim.schedule(0.50, host.migrate_to, world.cells[1])
    world.sim.schedule(0.503, host.migrate_to, world.cells[0])
    world.run_until_idle()
    assert world.metrics.count("stale_deregs_rejected") >= 1
    s0 = world.station(world.cells[0])
    assert s0.pref_of(host.node_id) is not None
    assert host.registered
    # The request still completed and the proxy retired.
    assert list(world.clients["m"].requests.values())[0].done
    assert world.live_proxy_count() == 0


def test_dereg_for_unknown_mh_answers_not_found(world):
    s0 = world.station(world.cells[0])
    s1 = world.station(world.cells[1])
    world.wired.send(s1.node_id, s0.node_id,
                     DeregMsg(mh=NodeId("mh:ghost"), seq=5))
    world.run_until_idle()
    assert world.metrics.count("deregs_for_unknown_mh") == 1
    # s1 had no acquisition open; the not-found reply is counted stale.
    assert world.metrics.count("stale_deregacks") == 1


def test_proxy_stays_at_creation_mss_through_many_migrations(world):
    world.add_server("slow", service_time=ConstantLatency(10.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    for i, t in enumerate((1.0, 2.0, 3.0, 4.0)):
        world.sim.schedule(t, host.migrate_to, world.cells[(i + 1) % 3])
    world.run(until=9.0)
    proxies = world.proxies_of("m")
    assert len(proxies) == 1
    assert proxies[0].host.node_id == world.station(world.cells[0]).node_id
    world.run_until_idle()
    assert world.live_proxy_count() == 0


def test_mss_counts_load_per_message(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    client.request("echo", 1)
    world.run_until_idle()
    s0 = world.station(world.cells[0])
    assert world.metrics.node_count(s0.node_id, "mss_messages_processed") > 0
