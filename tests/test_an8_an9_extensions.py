"""Tests for the AN8 (Ack priority) and AN9 (retention) mechanisms."""

from __future__ import annotations

import pytest

from repro.config import WorldConfig
from repro.experiments.an8_ack_priority import run_priority
from repro.experiments.an9_retention import run_retention
from repro.servers.echo import ManualServer

from tests.conftest import make_world


# -- retention mechanics (unit-ish, scripted world) ---------------------------

def test_retention_redelivers_locally_without_proxy_resend():
    world = make_world(retain_results=True)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.3)
    host.deactivate()
    server.release(p.request_id)
    world.run(until=1.0)
    assert not p.done
    assert world.metrics.count("results_retained") == 1
    host.activate()
    world.run_until_idle()
    assert p.done
    assert world.metrics.count("retained_redeliveries") == 1
    # The deferred update still goes out (AN4 bound intact), but no
    # wired retransmission was needed.
    assert world.metrics.count("proxy_retransmissions") == 0
    assert world.metrics.count("update_currentloc_sent") == 1
    assert world.live_proxy_count() == 0


def test_retention_disabled_uses_proxy_resend():
    world = make_world(retain_results=False)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.3)
    host.deactivate()
    server.release(p.request_id)
    world.run(until=1.0)
    host.activate()
    world.run_until_idle()
    assert p.done
    assert world.metrics.count("results_retained") == 0
    assert world.metrics.count("proxy_retransmissions") == 1


def test_retained_results_dropped_on_handoff():
    """RDP's pref-only hand-off: retention must not add residue."""
    world = make_world(retain_results=True)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.3)
    host.deactivate()
    server.release(p.request_id)
    world.run(until=1.0)
    # Wake in a *different* cell: hand-off, not reactivation.
    host.migrate_to(world.cells[1])
    host.activate()
    world.run_until_idle()
    assert p.done
    s0 = world.stations[world.cells[0]]
    assert s0.entries[host.node_id].retained is None
    # Delivery came from the proxy's re-send via the new MSS.
    assert world.metrics.count("proxy_retransmissions") >= 1


def test_retention_fallback_timer_releases_update():
    """If the MH naps again before acking the redelivery, the deferred
    update must still go out eventually (liveness)."""
    world = make_world(retain_results=True, ack_delay=0.05)
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    p = client.request("manual", "x")
    world.run(until=0.3)
    host.deactivate()
    server.release(p.request_id)
    world.run(until=1.0)
    host.activate()
    world.run(until=1.02)   # redelivered; ack pending (50 ms)
    host.deactivate()        # nap again: the pending ack dies
    world.run(until=3.0)
    assert world.metrics.count("update_currentloc_sent") >= 1  # fallback fired
    host.activate()
    world.run_until_idle()
    assert p.done


# -- experiment shapes -----------------------------------------------------------

def test_an8_priority_reduces_wasted_retransmissions():
    # Single seeds are noisy; aggregate a few.
    on_ignored = off_ignored = 0
    for seed in range(3):
        on = run_priority(True, n_hosts=10, requests_per_host=12, seed=seed)
        off = run_priority(False, n_hosts=10, requests_per_host=12, seed=seed)
        assert on.delivered == on.requests
        assert off.delivered == off.requests
        on_ignored += on.acks_ignored
        off_ignored += off.acks_ignored
    assert on_ignored < off_ignored


def test_an8_default_world_gives_acks_priority():
    """AN8's workload on the ``ack_priority`` ``WorldConfig`` ships with
    gives the prioritised result: 20 Acks ignored at seed 0, where no
    priority gives 47 (every AN8 run otherwise names the setting)."""
    result = run_priority(WorldConfig().ack_priority, seed=0)
    assert result.delivered == result.requests
    assert result.acks_ignored == 20


def test_an9_retention_shape():
    off = run_retention(False, n_hosts=4, duration=200.0, seed=0)
    on = run_retention(True, n_hosts=4, duration=200.0, seed=0)
    assert on.delivered == on.requests
    assert off.delivered == off.requests
    assert on.proxy_retransmissions < off.proxy_retransmissions
    assert on.retained > 0
