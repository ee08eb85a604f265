"""Tests for RNG streams and trace recording."""

from __future__ import annotations

from repro.instruments import Instruments
from repro.sim import RngStreams, TraceRecorder

from tests.conftest import trace_filter


def test_same_name_returns_same_stream():
    streams = RngStreams(seed=7)
    assert streams.stream("a") is streams.stream("a")


def test_streams_are_reproducible_across_instances():
    a = RngStreams(seed=7).stream("mobility")
    b = RngStreams(seed=7).stream("mobility")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_are_independent():
    streams = RngStreams(seed=7)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RngStreams(seed=1).stream("x").random()
    b = RngStreams(seed=2).stream("x").random()
    assert a != b


def test_adding_stream_does_not_perturb_existing():
    s1 = RngStreams(seed=3)
    first = s1.stream("a").random()
    s2 = RngStreams(seed=3)
    s2.stream("zzz")  # extra consumer
    assert s2.stream("a").random() == first


def test_spawn_derives_child_seed():
    parent = RngStreams(seed=5)
    child1 = parent.spawn("rep1")
    child2 = parent.spawn("rep2")
    assert child1.seed != child2.seed
    assert RngStreams(seed=5).spawn("rep1").seed == child1.seed


def test_recorder_records_and_filters():
    rec = TraceRecorder()
    rec.record(1.0, "send", "n1", msg="request")
    rec.record(2.0, "recv", "n2", msg="request")
    rec.record(3.0, "send", "n1", msg="ack")
    assert len(rec) == 3
    assert [r.time for r in trace_filter(rec, kind="send")] == [1.0, 3.0]
    assert trace_filter(rec, node="n2")[0].get("msg") == "request"
    assert trace_filter(rec, kind="send", msg="ack")[0].time == 3.0


def test_recorder_disabled_is_noop():
    rec = TraceRecorder(enabled=False)
    rec.record(1.0, "send", "n1")
    assert len(rec) == 0
    assert rec.counts == {}
    assert not rec.wants("send")


def test_recorder_kind_whitelist():
    # counts must agree with the kept records: filtered-out kinds are
    # neither stored nor counted.
    rec = TraceRecorder(kinds={"send"})
    rec.record(1.0, "send", "n1")
    rec.record(1.0, "recv", "n2")
    assert len(rec) == 1
    assert rec.counts == {"send": 1}
    assert rec.wants("send") and not rec.wants("recv")


def test_recorder_enabled_counts_match_records():
    rec = TraceRecorder()
    rec.record(1.0, "send", "n1")
    rec.record(2.0, "send", "n1")
    rec.record(3.0, "recv", "n2")
    assert rec.counts == {"send": 2, "recv": 1}
    assert rec.counts["send"] == len(trace_filter(rec, kind="send"))
    assert rec.wants("send") and rec.wants("anything")


def test_recorder_rows_filtered_out_are_neither_kept_nor_counted():
    disabled = TraceRecorder(enabled=False)
    disabled.record(1.0, "send", "n1", detail="request(r1)")
    filtered = TraceRecorder(kinds={"recv"})
    filtered.record(1.0, "send", "n1", detail="request(r1)")
    for recorder in (disabled, filtered):
        assert len(recorder) == 0 and recorder.counts == {}

    kept = TraceRecorder()
    kept.record(1.0, "send", "n1", detail="request(r1)")
    assert kept.counts == {"send": 1}
    assert kept.records[0].get("detail") == "request(r1)"


def test_recorder_sink_callback():
    seen = []
    rec = TraceRecorder(sink=seen.append)
    rec.record(1.0, "deliver", "mh")
    assert len(seen) == 1 and seen[0].kind == "deliver"


# -- instruments -----------------------------------------------------------------

def test_instruments_default_records():
    instr = Instruments()
    instr.recorder.record(1.0, "x", "n")
    assert len(instr.recorder) == 1


def test_instruments_disabled_records_nothing():
    instr = Instruments.disabled()
    instr.recorder.record(1.0, "x", "n")
    assert len(instr.recorder) == 0
    assert instr.recorder.counts == {}
