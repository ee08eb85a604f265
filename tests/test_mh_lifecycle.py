"""MH doze/crash/recovery lifecycle and durable proxy result custody.

The paper's MHs only ever *plan* their disconnections (``deactivate``).
These tests pin the unplanned flavours added for last-mile robustness:
doze (radio off, state kept), crash (volatile state lost, durable client
log survives), the recovery handshake that replays the log and dedups
redelivered results, wireless ack-timeout redelivery, bounded proxy
custody, and capped registration backoff under a blacked-out cell.
"""

from __future__ import annotations

import pytest

from repro.config import WirelessFaultSpec
from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.types import MhState
from repro.verify import NoCustodyLeak, NoLostResult, Oracle

from tests.conftest import make_world, trace_filter


def _attach_oracle(world, checkers=None):
    oracle = Oracle(checkers) if checkers is not None else Oracle()
    oracle.attach(world.instruments.recorder)
    return oracle


# -- doze / wake --------------------------------------------------------------

def test_doze_guards_and_state():
    world = make_world()
    world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    with pytest.raises(ProtocolError):
        host.wake()  # not dozing
    world.run(until=1.0)
    world.doze_mh("m")
    assert host.state is MhState.DOZING
    assert not host.registered
    with pytest.raises(ProtocolError):
        host.doze()  # already dozing
    with pytest.raises(ProtocolError):
        host.send_request("echo")  # radio is off
    world.wake_mh("m")
    assert host.state is MhState.ACTIVE
    world.run(until=2.0)
    assert host.registered  # wake re-registered in place


def test_doze_with_result_in_flight_is_exactly_once():
    """A result that arrives while the MH dozes is held in custody and
    delivered exactly once after the wake re-registration."""
    world = make_world(wireless_ack_timeout=3.0)
    oracle = _attach_oracle(world)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.3))
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    pending = client.request("echo", 7)
    world.run(until=1.1)   # request is uplinked, result still cooking
    world.doze_mh("m")
    world.run(until=2.5)   # result reached the MSS, downlink dropped
    assert not pending.done
    world.wake_mh("m")
    world.run(until=10.0)
    assert pending.done and pending.result == 7
    oracle.detach()
    oracle.finish()
    assert oracle.violations == []


# -- crash / recover ----------------------------------------------------------

def test_crash_wipes_volatile_state_and_guards():
    world = make_world()
    world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.run(until=1.0)
    assert host.registered
    world.crash_mh("m")
    assert host.state is MhState.CRASHED
    assert not host.registered and host.resp_mss is None
    with pytest.raises(ProtocolError):
        host.crash()  # already down
    with pytest.raises(ProtocolError):
        host.send_request("echo")


def test_recovery_replays_log_and_chases_custody_across_cells():
    """Crash with a request unanswered, recover in a DIFFERENT cell: the
    durable log replays the request, the greet's old_mss chases the held
    result across the hand-off, and delivery is exactly-once."""
    world = make_world(wireless_ack_timeout=3.0)
    oracle = _attach_oracle(world)
    server = world.add_server("echo", ManualServer)
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    pending = client.request("echo", 42)
    world.run(until=1.5)   # request held at the server
    world.crash_mh("m")
    world.run(until=2.0)
    server.release_next()  # result lands in proxy custody, MH is dark
    world.run(until=3.0)
    world.recover_mh("m", world.cells[1])
    world.run(until=20.0)
    assert pending.done and pending.result == 42
    recoveries = trace_filter(world.instruments.recorder, kind="mh_recover")
    assert len(recoveries) == 1
    assert recoveries[0].get("replayed") == 1
    oracle.detach()
    oracle.finish()
    assert oracle.violations == []


def test_amnesia_recovery_loses_what_the_log_would_have_saved():
    """The same scenario without the durable log: the unanswered request
    is never replayed and the oracle sees the lost result — this is the
    gap the client log exists to close."""
    world = make_world(wireless_ack_timeout=-1.0, proxy_custody_ttl=1.0)
    oracle = _attach_oracle(world, [NoLostResult()])
    server = world.add_server("echo", ManualServer)
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    pending = client.request("echo", 42)
    world.run(until=1.5)
    world.crash_mh("m")
    world.run(until=2.0)
    server.release_next()
    world.run(until=5.0)   # custody TTL expires while the MH is down
    world.hosts["m"].recover(world.cells[1], amnesia=True)
    world.run(until=20.0)
    assert not pending.done
    oracle.detach()
    oracle.finish()
    assert [v.invariant for v in oracle.violations] == ["no_lost_result"]


def test_recovery_dedups_redelivered_results():
    """A result delivered (and logged) just before the crash may be
    redelivered by the custody chase; the log's delivered-ids set must
    swallow the duplicate."""
    world = make_world(wireless_ack_timeout=1.0)
    oracle = _attach_oracle(world)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.1))
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    pending = client.request("echo", 5)
    world.run(until=1.5)
    assert pending.done
    # Crash before the wireless ack cycle fully settles, then recover:
    # the proxy may push the result again at re-registration.
    world.crash_mh("m")
    world.run(until=2.5)
    world.recover_mh("m", world.cells[0])
    world.run(until=15.0)
    host = world.hosts["m"]
    deliveries = [r for r in trace_filter(world.instruments.recorder, kind="deliver")
                  if r.node == host.node_id]
    assert len(deliveries) == 1  # duplicates were dropped before "deliver"
    oracle.detach()
    oracle.finish()
    assert oracle.violations == []


# -- bounded custody ----------------------------------------------------------

def test_custody_ttl_expires_with_trace_and_metric():
    """With redelivery off and a short TTL, custody of a result for a
    crashed MH ends in an explicit ``custody_expired`` — traced, counted,
    and discharging the no-custody-leak invariant."""
    world = make_world(wireless_ack_timeout=-1.0, proxy_custody_ttl=1.0)
    oracle = _attach_oracle(world, [NoCustodyLeak()])
    server = world.add_server("echo", ManualServer)
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    client.request("echo", 9)
    world.run(until=1.5)
    world.crash_mh("m")
    world.run(until=2.0)
    server.release_next()
    world.run(until=6.0)   # TTL 1.0 fires well before anyone returns
    expired = trace_filter(world.instruments.recorder, kind="custody_expired")
    assert len(expired) == 1
    assert expired[0].get("age") >= 1.0
    assert world.instruments.metrics.count("proxy_custody_expired") == 1
    oracle.detach()
    oracle.finish()
    assert oracle.violations == []


# -- wireless redelivery ------------------------------------------------------

def test_ack_timeout_redelivers_through_a_blackout():
    """A result downlinked into a cell blackout is redelivered by the
    wireless ack timeout once the radio clears — no re-registration, no
    client retry, still exactly-once."""
    world = make_world(wireless_faults=WirelessFaultSpec(
        blackouts=(("cell0", 1.4, 3.0),)))
    oracle = _attach_oracle(world)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.5))
    client = world.add_host("m", world.cells[0])
    world.run(until=1.0)
    pending = client.request("echo", 3)   # result downlinks at ~1.55: dark
    world.run(until=2.0)
    assert not pending.done
    world.run(until=10.0)                 # auto ack timeout (3 s) re-sends
    assert pending.done
    redeliveries = trace_filter(world.instruments.recorder,
        kind="wireless_redelivery")
    assert len(redeliveries) >= 1
    assert world.instruments.metrics.count("wireless_redeliveries") >= 1
    oracle.detach()
    oracle.finish()
    assert oracle.violations == []


# -- registration backoff under blackout --------------------------------------

def test_registration_backoff_capped_under_blacked_out_cell():
    """Joining inside a 20 s blackout: greet retries back off (doubling,
    saturating at the cap) instead of hammering a dead radio, the timer
    never grows past the cap, and exactly one registration lands once
    the cell clears."""
    world = make_world(wireless_faults=WirelessFaultSpec(
        blackouts=(("cell0", 0.0, 20.0),)))
    world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    retry_times = []
    for step in range(1, 91):  # 0.5 s steps up to 45 s
        world.run(until=step * 0.5)
        if world.instruments.metrics.count(
                "mh_registration_retries") > len(retry_times):
            retry_times.append(world.sim.now)
        if world.sim.now == 19.0:
            assert not host.registered
            # Capped doubling (1+2+4+8+8...) fits ~5 retries in 19 s;
            # the legacy fixed 1 s timer would have burnt 18.
            assert 3 <= len(retry_times) <= 7
    # The interval saturates at the auto cap (8 x greet_retry_interval).
    gaps = [b - a for a, b in zip(retry_times, retry_times[1:])]
    assert gaps == [2.0, 4.0, 8.0, 8.0]
    assert host.registered
    registrations = [r for r in
                     trace_filter(world.instruments.recorder, kind="register")
                     if r.get("mh") == host.node_id]
    assert len(registrations) == 1
