"""Tests for the mobile-host state machine and the client API."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer, ManualServer
from repro.types import MhState

from tests.conftest import make_world


def test_join_required_before_requests(world):
    client = world.add_host("m", world.cells[0], join=False)
    with pytest.raises(ProtocolError):
        client.host.send_request("echo", 1)


def test_double_join_rejected(world):
    world.add_host("m", world.cells[0])
    with pytest.raises(ProtocolError):
        world.hosts["m"].join(world.cells[1])


def test_requests_queued_until_registered(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    # Issue immediately: the join confirmation has not arrived yet.
    pending = client.request("echo", 42)
    assert not world.hosts["m"].registered
    world.run_until_idle()
    assert pending.done
    assert pending.result == 42


def test_migrate_to_same_cell_is_noop(world):
    world.add_host("m", world.cells[0])
    world.run_until_idle()
    world.hosts["m"].migrate_to(world.cells[0])
    assert world.metrics.count("mh_migrations") == 0


def test_deactivate_activate_cycle(world):
    world.add_host("m", world.cells[0])
    world.run_until_idle()
    host = world.hosts["m"]
    host.deactivate()
    assert host.state is MhState.INACTIVE
    assert not host.registered
    with pytest.raises(ProtocolError):
        host.deactivate()
    host.activate()
    assert host.state is MhState.ACTIVE
    world.run_until_idle()
    assert host.registered


def test_activate_while_active_rejected(world):
    world.add_host("m", world.cells[0])
    with pytest.raises(ProtocolError):
        world.hosts["m"].activate()


def test_cannot_send_while_inactive(world):
    client = world.add_host("m", world.cells[0])
    world.run_until_idle()
    world.hosts["m"].deactivate()
    with pytest.raises(ProtocolError):
        client.host.send_request("echo", 1)


def test_leave_with_unacked_results_rejected(world):
    """Assumption 6: leave only after acknowledging everything."""
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    host.ack_delay = 10.0  # the Ack stays pending for a long while
    p = client.request("manual", 1)
    world.run(until=0.3)
    server.release(p.request_id)
    world.run(until=0.4)  # result delivered, Ack still pending
    with pytest.raises(ProtocolError):
        host.leave()
    world.run_until_idle()
    host.leave()
    assert host.state is MhState.LEFT


def test_duplicate_results_filtered_but_acked(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.3)
    host.deactivate()           # miss the first delivery attempt
    server.release(p.request_id)
    world.run(until=1.0)
    host.activate()             # triggers redelivery
    world.run_until_idle()
    assert p.done
    assert len(p.results) == 1  # the app saw it once
    assert host.duplicate_deliveries == 0  # first attempt never arrived
    # Now force an actual duplicate: deliver, drop the ack, reactivate.
    host.ack_delay = 0.05
    p2 = client.request("manual", "y")
    world.run(until=world.sim.now + 0.3)
    server.release(p2.request_id)
    world.run(until=world.sim.now + 0.02)   # result delivered, ack pending
    host.deactivate()                        # pending ack dropped
    world.run(until=world.sim.now + 0.5)
    host.ack_delay = 0.0
    host.activate()                          # proxy re-sends
    world.run_until_idle()
    assert p2.done
    assert host.duplicate_deliveries == 0 or len(p2.results) == 1


def test_registration_retries_under_loss():
    world = make_world(wireless_loss=0.4, seed=5)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    pending = client.request("echo", 7)
    world.run(until=60.0)
    assert world.hosts["m"].registered
    assert pending.done
    world.run_until_idle()


def test_client_latency_accounting(world):
    world.add_server("slow", EchoServer, service_time=ConstantLatency(0.5))
    client = world.add_host("m", world.cells[0])
    p = client.request("slow", 1)
    world.run_until_idle()
    assert p.latency == pytest.approx(0.5, abs=0.2)
    assert client.latencies() == [p.latency]
    assert client.outstanding == []
    assert client.completed == [p]


def test_client_result_property_raises_before_done(world):
    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    p = client.request("manual", 1)
    with pytest.raises(ProtocolError):
        _ = p.result
    world.run_until_idle


def test_client_callback_invoked_once(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    calls = []
    client.request("echo", 5, on_result=calls.append)
    world.run_until_idle()
    assert calls == [5]


def test_client_retry_stops_after_completion(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=0.5)
    p = client.request("echo", 1)
    world.run_until_idle()
    assert p.done
    assert world.metrics.count("mh_request_retries") == 0 or p.done
    # After completion nothing is scheduled: the world goes idle (the
    # run_until_idle above would have raised otherwise).
