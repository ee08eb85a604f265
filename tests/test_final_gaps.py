"""Final negative-path and guard tests."""

from __future__ import annotations

import pytest

from repro.analysis.verify import VerificationReport, check_proxy_reachability
from repro.config import WorldConfig
from repro.errors import ConfigError

from tests.conftest import make_world


def test_duplicate_host_name_rejected(world):
    world.add_host("m", world.cells[0])
    with pytest.raises(ConfigError):
        world.add_host("m", world.cells[1])


def test_duplicate_server_name_rejected(world):
    world.add_server("echo")
    with pytest.raises(ConfigError):
        world.add_server("echo")


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        WorldConfig(topology="grid", grid_width=0)
    with pytest.raises(ConfigError):
        WorldConfig(topology="ring", n_cells=2)
    WorldConfig(topology="ring", n_cells=3)  # boundary is fine


def test_proxy_reachability_detects_stranded_state(world):
    """Manually strand a busy proxy: the invariant must fire."""
    from repro.servers.echo import ManualServer

    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    client.request("manual", 1)
    world.run(until=1.0)
    station = world.station(world.cells[0])
    # Cut the pref while the proxy still has pending work.
    pref = station.pref_of(world.hosts["m"].node_id)
    pref.ref = None
    report = VerificationReport()
    check_proxy_reachability(world, report)
    assert not report.ok
    assert "referenced by no pref" in report.violations[0]


def test_proxy_reachability_ignores_mid_handoff(world):
    """A busy proxy whose MH is between registrations is not stranded."""
    from repro.servers.echo import ManualServer

    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    client.request("manual", 1)
    world.run(until=1.0)
    station = world.station(world.cells[0])
    mh = world.hosts["m"].node_id
    station.entries[mh].pref = None   # simulate the hand-off gap
    report = VerificationReport()
    check_proxy_reachability(world, report)
    assert report.ok


def test_timeline_reports_crash_and_move():
    world = make_world(n_cells=8, proxy_migrate_distance=3.0)
    from repro.analysis.timeline import extract_timeline
    from repro.servers.multicast import GroupServer

    world.add_server("groups", GroupServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    client.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    for i in range(1, 6):
        host.migrate_to(world.cells[i])
        world.run(until=world.sim.now + 1.0)
    world.station(world.cells[0]).crash_and_restart()
    world.run(until=world.sim.now + 1.0)
    texts = [e.text for e in extract_timeline(world.recorder)]
    assert any(t.startswith("proxy_move") for t in texts)
    assert any("CRASH" in t for t in texts)
