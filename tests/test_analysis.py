"""Tests for statistics, sequence charts, and invariant verification."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import MetricsRegistry
from repro.analysis.sequence import (
    extract_chart,
    kinds_in_order,
    render_chart,
    subsequence_present,
)
from repro.analysis.stats import (
    Summary,
    histogram,
    imbalance_ratio,
    jain_fairness,
    mean,
    percentile,
    rate,
    stddev,
    summarize,
)
from repro.net.latency import ConstantLatency
from repro.sim import TraceRecorder

from tests.conftest import make_world
from tests.invariants import assert_invariants, attach_oracle, check_proxy_reachability


# -- stats ------------------------------------------------------------------------

def test_mean_and_stddev():
    assert mean([1, 2, 3]) == 2.0
    assert mean([]) == 0.0
    assert stddev([2, 2, 2]) == 0.0
    assert stddev([1, 3]) == pytest.approx(1.4142, rel=1e-3)
    assert stddev([5]) == 0.0


def test_percentile_interpolates():
    values = [10, 20, 30, 40]
    assert percentile(values, 0) == 10
    assert percentile(values, 100) == 40
    assert percentile(values, 50) == 25
    assert percentile([], 50) == 0.0
    with pytest.raises(ValueError):
        percentile(values, 150)


def test_summarize():
    s = summarize([1.0, 2.0, 3.0, 4.0, 100.0])
    assert isinstance(s, Summary)
    assert s.count == 5
    assert s.maximum == 100.0
    assert s.p50 == 3.0
    assert "n=5" in str(s)
    empty = summarize([])
    assert empty.count == 0


def test_jain_fairness_bounds():
    assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)
    assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)
    assert jain_fairness([]) == 1.0
    assert jain_fairness([0, 0]) == 1.0


def test_imbalance_ratio():
    assert imbalance_ratio([2, 2, 2]) == pytest.approx(1.0)
    assert imbalance_ratio([9, 1, 2]) == pytest.approx(9 / 4)
    assert imbalance_ratio([]) == 1.0


def test_histogram():
    h = histogram([0.1, 0.15, 0.34, 0.9], 0.2)
    assert h[0.0] == 2
    assert h[0.2] == 1
    assert sum(h.values()) == 4
    assert any(abs(edge - 0.8) < 1e-9 for edge in h)
    with pytest.raises(ValueError):
        histogram([1], 0)


def test_rate():
    assert rate(3, 6) == 0.5
    assert rate(3, 0) == 0.0


# -- sequence charts -----------------------------------------------------------------

def _recorder_with_sends() -> TraceRecorder:
    rec = TraceRecorder()
    rec.record(1.0, "send", "a", msg="request", dst="b", detail="request(r1)")
    rec.record(1.5, "recv", "b", msg="request", src="a")
    rec.record(2.0, "send", "b", msg="result_forward", dst="c",
               detail="fwd_result(r1)")
    rec.record(3.0, "send", "c", msg="ack", dst="b", detail="ack(r1)")
    return rec


def test_extract_chart_uses_send_records():
    chart = extract_chart(_recorder_with_sends())
    assert len(chart) == 3
    assert chart[0].arrow() == "a -> b: request(r1)"


def test_extract_chart_filters_kinds_and_participants():
    rec = _recorder_with_sends()
    assert len(extract_chart(rec, kinds={"ack"})) == 1
    assert len(extract_chart(rec, participants={"a", "b"})) == 1


def test_kinds_in_order_and_render():
    chart = extract_chart(_recorder_with_sends())
    assert kinds_in_order(chart) == ["request", "result_forward", "ack"]
    text = render_chart(chart, title="T")
    assert "T" in text and "fwd_result(r1)" in text


def test_subsequence_present():
    hay = ["a", "x", "b", "y", "c"]
    assert subsequence_present(hay, ["a", "b", "c"])
    assert subsequence_present(hay, [])
    assert not subsequence_present(hay, ["b", "a"])
    assert not subsequence_present(hay, ["a", "z"])


# -- end-of-run invariants (the oracle plus the two world-state checks) ----------------

def test_invariants_hold_on_clean_world(world):
    oracle = attach_oracle(world)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    client.request("echo", 1)
    world.run_until_idle()
    assert_invariants(world, oracle)
    assert not any(proxy.requestlist for station in world.stations.values()
                   for proxy in station.proxies.values())


def test_check_detects_incomplete_requests(world):
    from repro.servers.echo import ManualServer

    oracle = attach_oracle(world)
    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    client.request("manual", 1)
    world.run(until=1.0)
    violations = oracle.finish()
    assert [v.invariant for v in violations] == ["no_lost_result"]
    assert "was never delivered" in violations[0].detail


def test_check_detects_lingering_proxies(world):
    """A request stuck at its proxy: the proxy still holds it at the end,
    which the oracle reports as the lost result it is."""
    from repro.servers.echo import ManualServer

    oracle = attach_oracle(world)
    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    client.request("manual", 1)
    world.run(until=1.0)
    station = world.station(world.cells[0])
    assert any(proxy.requestlist for proxy in station.proxies.values())
    assert any(v.invariant == "no_lost_result" for v in oracle.finish())


def test_check_passes_under_heavy_migration(world):
    oracle = attach_oracle(world)
    world.add_server("slow", service_time=ConstantLatency(2.0))
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.sim.schedule(0.1, client.request, "slow", 1)
    for i, t in enumerate((0.5, 1.0, 1.5, 2.0, 2.5)):
        world.sim.schedule(t, host.migrate_to, world.cells[(i + 1) % 3])
    world.run_until_idle()
    assert_invariants(world, oracle)
    assert not any(proxy.requestlist for station in world.stations.values()
                   for proxy in station.proxies.values())


# -- metrics registry and sequence filters -----------------------------------

def test_metrics_series_and_per_node():
    metrics = MetricsRegistry()
    metrics.incr("hits", node="n1")
    metrics.incr("hits", amount=2, node="n2")
    metrics.observe("lat", 1.0)
    metrics.observe("lat", 3.0)
    assert metrics.count("hits") == 3
    assert metrics.node_count("n1", "hits") == 1
    assert metrics.per_node("hits") == {"n1": 1, "n2": 2}
    assert metrics.mean("lat") == 2.0
    assert metrics.mean("missing") == 0.0
    assert metrics.samples("lat") == [1.0, 3.0]
    snap = metrics.snapshot()
    assert snap["hits"] == 3
    metrics.clear()
    assert metrics.count("hits") == 0
    # Cleared, not detached: the next increment counts from zero and is
    # what the hub exports.
    metrics.incr("hits", node="n1")
    assert metrics.count("hits") == 1
    assert metrics.hub.counter_total("rdp_hits_total") == 1
    assert metrics.hub.get("rdp_hits_total").items()[0][0] == ("n1",)


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
    violations = check_proxy_reachability(world)
    assert violations and "referenced by no pref" in violations[0]


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
    assert check_proxy_reachability(world) == []
