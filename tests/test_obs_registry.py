"""Unit tests for the typed metrics hub and its exporters."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs import (
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsHub,
    ScrapeProcess,
    digest,
    json_text,
    prometheus_text,
    snapshot,
)
from repro.sim import Simulator
from repro.types import NodeId


# -- registry -----------------------------------------------------------------


def test_counter_family_labels_and_total():
    hub = MetricsHub()
    family = hub.counter("rdp_things_total", "things", labels=("kind",))
    family.labels("a").inc()
    family.labels("a").inc(2)
    family.labels("b").inc()
    assert family.labels("a").value == 3
    assert family.value == 4
    assert hub.counter_total("rdp_things_total") == 4
    assert hub.counter_total("rdp_missing_total") == 0


def test_counter_rejects_negative_increment():
    hub = MetricsHub()
    with pytest.raises(ConfigError):
        hub.counter("rdp_x_total").inc(-1)


def test_gauge_set_inc_dec_and_function():
    hub = MetricsHub()
    gauge = hub.gauge("rdp_depth")
    gauge.set(5)
    gauge.labels().inc(2)
    gauge.labels().dec()
    assert gauge.read() == 6
    backing = [1, 2, 3]
    gauge.set_function(lambda: float(len(backing)))
    assert gauge.read() == 3.0
    backing.append(4)
    assert gauge.read() == 4.0


def test_histogram_buckets_are_cumulative():
    hub = MetricsHub()
    family = hub.histogram("rdp_lat", buckets=(0.1, 1.0, 10.0))
    child = family.labels()
    for value in (0.05, 0.5, 0.5, 5.0, 50.0):
        child.observe(value)
    assert child.cumulative() == [1, 3, 4, 5]
    assert child.total == 5
    assert child.sum == pytest.approx(56.05)


def test_histogram_track_keeps_samples():
    hub = MetricsHub()
    child = hub.histogram("rdp_s", buckets=(1.0,), track=True).labels()
    child.observe(0.5)
    child.observe(2.0)
    assert child.samples == [0.5, 2.0]


def test_histogram_rejects_bad_bounds():
    hub = MetricsHub()
    with pytest.raises(ConfigError):
        hub.histogram("rdp_bad", buckets=())
    with pytest.raises(ConfigError):
        hub.histogram("rdp_bad", buckets=(2.0, 1.0))


def test_registration_is_idempotent_for_identical_schema():
    hub = MetricsHub()
    first = hub.counter("rdp_x_total", labels=("a",))
    again = hub.counter("rdp_x_total", labels=("a",))
    assert first is again


def test_registration_conflict_raises():
    hub = MetricsHub()
    hub.counter("rdp_x_total", labels=("a",))
    with pytest.raises(ConfigError):
        hub.counter("rdp_x_total", labels=("b",))
    with pytest.raises(ConfigError):
        hub.gauge("rdp_x_total", labels=("a",))
    hub.histogram("rdp_h", buckets=(1.0, 2.0))
    with pytest.raises(ConfigError):
        hub.histogram("rdp_h", buckets=(1.0, 3.0))


def test_invalid_names_rejected():
    hub = MetricsHub()
    with pytest.raises(ConfigError):
        hub.counter("bad name")
    with pytest.raises(ConfigError):
        hub.counter("rdp_ok_total", labels=("bad label",))


def test_labels_normalise_every_spelling_to_one_string_keyed_child():
    """``labels()`` probes with the caller's tuple and normalises only on
    a miss; whatever the spelling and whichever came first, the child is
    stored once, under the string tuple."""
    hub = MetricsHub()
    families = (hub.counter("rdp_c_total", labels=("node",)),
                hub.gauge("rdp_g", labels=("node",)),
                hub.histogram("rdp_h", labels=("node",), buckets=(1.0,)))
    for family in families:
        seven = family.labels(7)                    # raw spelling first
        assert family.labels("7") is seven
        assert family.labels(NodeId("7")) is seven
        assert family.labels(7) is seven
        assert family.labels(7.0) is not seven      # str(7.0) == "7.0"
        nine = family.labels("9")                   # string spelling first
        assert family.labels(9) is nine
        family.labels("mss:a")
        assert sorted(family.children) == [("7",), ("7.0",), ("9",), ("mss:a",)]
        assert [values for values, _ in family.items()] == sorted(family.children)
        for wrong in ((), ("a", "b"), (1, 2)):
            with pytest.raises(ConfigError):
                family.labels(*wrong)
        assert len(family.children) == 4            # a refused call leaves nothing
    prometheus_text(hub)                            # sorted(): str keys only
    assert [family.name for family in hub.families()] == [
        "rdp_c_total", "rdp_g", "rdp_h"]


def test_unlabeled_family_has_the_one_empty_tuple_child():
    hub = MetricsHub()
    family = hub.counter("rdp_u_total")
    family.labels().inc()
    family.inc()
    assert family.labels() is family.labels()
    assert list(family.children) == [()] and family.value == 2
    with pytest.raises(ConfigError):
        family.labels("x")


def test_default_bucket_presets_are_sorted():
    assert list(LATENCY_BUCKETS) == sorted(LATENCY_BUCKETS)
    assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)


# -- exporters ----------------------------------------------------------------


def _filled_hub() -> MetricsHub:
    hub = MetricsHub()
    sent = hub.counter("rdp_msgs_total", "messages", labels=("net", "kind"))
    sent.labels("wired", "request").inc(3)
    sent.labels("wireless", "ack").inc(1)
    hub.gauge("rdp_live", "live things").set(2)
    lat = hub.histogram("rdp_lat", "latency", buckets=(0.1, 1.0))
    lat.labels().observe(0.0625)  # binary-exact so sums render stably
    lat.labels().observe(0.5)
    return hub


def test_prometheus_text_format():
    text = prometheus_text(_filled_hub())
    lines = text.splitlines()
    assert "# HELP rdp_msgs_total messages" in lines
    assert "# TYPE rdp_msgs_total counter" in lines
    assert 'rdp_msgs_total{net="wired",kind="request"} 3' in lines
    assert "# TYPE rdp_live gauge" in lines
    assert "rdp_live 2" in lines
    assert "# TYPE rdp_lat histogram" in lines
    assert 'rdp_lat_bucket{le="0.1"} 1' in lines
    assert 'rdp_lat_bucket{le="1"} 2' in lines
    assert 'rdp_lat_bucket{le="+Inf"} 2' in lines
    assert "rdp_lat_sum 0.5625" in lines
    assert "rdp_lat_count 2" in lines
    assert text.endswith("\n")


def test_prometheus_escapes_label_values():
    hub = MetricsHub()
    hub.counter("rdp_x_total", labels=("v",)).labels('a"b\\c\nd').inc()
    text = prometheus_text(hub)
    assert r'v="a\"b\\c\nd"' in text


def test_snapshot_shape_and_json_round_trip():
    hub = _filled_hub()
    snap = snapshot(hub, sim_time=12.5)
    assert snap["sim_time"] == 12.5
    families = snap["families"]
    assert families["rdp_msgs_total"]["type"] == "counter"
    assert families["rdp_msgs_total"]["label_names"] == ["net", "kind"]
    histogram = families["rdp_lat"]["samples"][0]
    assert histogram["count"] == 2
    assert histogram["buckets"] == {"0.1": 1, "1": 2}
    parsed = json.loads(json_text(hub, sim_time=12.5))
    assert parsed == json.loads(json.dumps(snap))


def test_exports_are_deterministic():
    assert prometheus_text(_filled_hub()) == prometheus_text(_filled_hub())
    assert json_text(_filled_hub()) == json_text(_filled_hub())


def test_digest_collapses_node_labels():
    hub = MetricsHub()
    per_node = hub.counter("rdp_load_total", labels=("node",))
    per_node.labels("s0").inc(4)
    per_node.labels("s1").inc(6)
    by_kind = hub.counter("rdp_kinds_total", labels=("net", "kind"))
    by_kind.labels("wired", "request").inc(2)
    hub.histogram("rdp_lat", buckets=(1.0,)).labels().observe(0.25)
    out = digest(hub)
    assert out["rdp_load_total"] == 10  # per-node family -> total only
    assert out["rdp_kinds_total"] == {"wired,request": 2}
    assert out["rdp_lat"] == {"count": 1, "sum": 0.25}


# -- scrape -------------------------------------------------------------------


def test_scrape_process_snapshots_on_sim_time():
    sim = Simulator()
    hub = MetricsHub()
    counter = hub.counter("rdp_ticks_total")
    scrape = ScrapeProcess(sim, hub, period=1.0)
    scrape.start()
    sim.schedule(0.5, counter.inc)
    sim.schedule(2.5, counter.inc)
    sim.run(until=3.5)
    scrape.stop()
    assert not scrape.running
    times = [snap["sim_time"] for snap in scrape.snapshots]
    assert times == [1.0, 2.0, 3.0]
    values = [
        snap["families"]["rdp_ticks_total"]["samples"][0]["value"]
        for snap in scrape.snapshots
    ]
    assert values == [1, 1, 2]


def test_scrape_rejects_bad_period():
    with pytest.raises(ConfigError):
        ScrapeProcess(Simulator(), MetricsHub(), period=0.0)
