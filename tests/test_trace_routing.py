"""The recorder's sink contract (kind-routed sinks, registration order,
subscriptions that change mid-run, one shared object per row) and its
compact storage (no tracked object and few bytes per kept row, rows come
back exactly as recorded, every read path agrees and builds fresh dicts)."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.errors import VerificationError
from repro.sim.tracing import TraceRecord, TraceRecorder
from repro.verify import ExactlyOnceDelivery, Oracle

from tests.conftest import trace_filter

KINDS = ("send", "request", "recv", "deliver", "mss_crash")


def _tagger(calls, name):
    return lambda rec: calls.append((rec.time, name))


def test_filtered_sink_receives_only_its_kinds():
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append, kinds={"request", "deliver"})
    for i, kind in enumerate(KINDS):
        recorder.record(float(i), kind, "n")
    assert [rec.kind for rec in seen] == ["request", "deliver"]
    assert len(recorder) == len(KINDS)       # routing filters sinks, not rows


def test_mixed_sinks_are_called_in_registration_order():
    calls = []
    recorder = TraceRecorder(sink=_tagger(calls, "ctor"))   # all kinds
    recorder.add_sink(_tagger(calls, "send"), kinds={"send"})
    recorder.add_sink(_tagger(calls, "all"))
    recorder.add_sink(_tagger(calls, "send+recv"), kinds=("send", "recv"))
    for i, kind in enumerate(("send", "recv", "deliver", "send")):
        recorder.record(float(i), kind, "n")
    assert calls == [
        (0.0, "ctor"), (0.0, "send"), (0.0, "all"), (0.0, "send+recv"),
        (1.0, "ctor"), (1.0, "all"), (1.0, "send+recv"),
        (2.0, "ctor"), (2.0, "all"),
        (3.0, "ctor"), (3.0, "send"), (3.0, "all"), (3.0, "send+recv"),
    ]


def test_sink_added_after_rows_takes_effect_on_the_next_row():
    # The fuzz/fault-soak pattern: the world records rows (so every kind's
    # route is already built) before the oracle subscribes.
    recorder = TraceRecorder()
    early, late = [], []
    recorder.add_sink(early.append, kinds={"send"})
    recorder.record(1.0, "send", "n")
    recorder.record(1.5, "recv", "n")
    recorder.add_sink(late.append, kinds={"send"})
    recorder.add_sink(late.append, kinds={"recv"})
    recorder.record(2.0, "send", "n")
    recorder.record(2.5, "recv", "n")
    assert [rec.time for rec in early] == [1.0, 2.0]
    assert [rec.time for rec in late] == [2.0, 2.5]


def test_sink_removed_after_rows_stops_on_the_next_row():
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append)
    recorder.record(1.0, "send", "n")
    recorder.remove_sink(seen.append)
    recorder.record(2.0, "send", "n")
    assert [rec.time for rec in seen] == [1.0]


def test_remove_filtered_sink():
    recorder = TraceRecorder()
    kept, removed = [], []
    recorder.add_sink(removed.append, kinds={"deliver"})
    recorder.add_sink(kept.append, kinds={"deliver"})
    recorder.record(1.0, "deliver", "n")
    recorder.remove_sink(removed.append)
    recorder.remove_sink(removed.append)      # absent now: a no-op
    recorder.record(2.0, "deliver", "n")
    assert [rec.time for rec in removed] == [1.0]
    assert [rec.time for rec in kept] == [1.0, 2.0]


def test_filtered_out_rows_reach_no_sink():
    recorder = TraceRecorder(kinds={"deliver"})
    seen = []
    recorder.add_sink(seen.append)
    recorder.add_sink(seen.append, kinds={"send"})
    recorder.record(1.0, "send", "n")
    recorder.record(2.0, "deliver", "n")
    assert [rec.kind for rec in seen] == ["deliver"]


def test_every_sink_of_a_row_gets_one_shared_object():
    recorder = TraceRecorder()
    seen = []
    recorder.add_sink(seen.append)
    recorder.add_sink(seen.append, kinds={"send"})
    recorder.record(1.0, "send", "n", msg_id=7, detail="d")
    assert seen[0] is seen[1]
    # The recorder keeps the row's values, not the object: a read gives an
    # equal view.
    view = next(iter(recorder))
    assert view == seen[0] and view is not seen[0]
    assert seen[0].fields == {"msg_id": 7, "detail": "d"}


def test_a_row_without_sinks_builds_no_record(monkeypatch):
    built = []
    monkeypatch.setattr(TraceRecord, "__init__",
                        lambda self, *args: built.append(args))
    recorder = TraceRecorder()
    recorder.add_sink(lambda rec: None, kinds={"deliver"})
    recorder.record(1.0, "send", "n", msg_id=7)
    assert built == [] and len(recorder) == 1
    recorder.record(2.0, "deliver", "n")
    assert len(built) == 1


def test_kept_rows_add_nothing_the_collector_tracks():
    recorder = TraceRecorder()
    recorder.add_sink(lambda rec: None)
    gc.collect()
    before = len(gc.get_objects())
    for i in range(10_000):
        kind = ("send", "recv", "request")[i % 3]
        if kind == "request":
            recorder.record(float(i), kind, "mh:h0", request_id=f"h0-r{i}",
                            service="app")
        else:
            recorder.record(float(i), kind, "mss:s1", net="wired", msg="request",
                            msg_id=i, detail="request(h0-r1)")
    assert len(gc.get_objects()) - before < 50 and len(recorder) == 10_000
    assert not any(gc.is_tracked(fields) for *_, fields in recorder.rows())


def test_every_read_path_agrees_on_a_mixed_trace():
    recorder = TraceRecorder()
    recorder.record(1.0, "send", "a", net="wired", msg_id=1)
    recorder.record(1.0, "recv", "b", net="wired", msg_id=1)
    recorder.record(2.5, "request", "a", request_id="a-r1",
                    candidates=["cell0", "cell1"])      # a container value
    recorder.record(3.0, "send", "b", net="wireless", msg_id=2)
    rows = list(recorder.rows())
    views = list(recorder)
    assert len(recorder) == len(rows) == len(views) == 4
    assert views == [TraceRecord(*row) for row in rows]
    assert rows[2] == (2.5, "request", "a",
                       {"request_id": "a-r1", "candidates": ["cell0", "cell1"]})
    assert list(recorder.rows(1, 3)) == rows[1:3]
    assert trace_filter(recorder, kind="send") == [views[0], views[3]]
    assert trace_filter(recorder, node="b", net="wired") == [views[1]]
    assert trace_filter(recorder, candidates=["cell0", "cell1"]) == [views[2]]
    assert recorder.counts == {"send": 2, "recv": 1, "request": 1}


def test_a_kept_send_row_costs_little_beyond_its_values():
    # Nine references (six values, time, node, shape) and a 4-byte offset
    # are 76 B, ~80 B with list over-allocation.  A kept `**fields` dict
    # per row cost ~300 B on CPython 3.11.
    rows = [(i * 0.5, "send", "mss:s1",
             {"net": "wired", "msg": "request", "msg_id": i, "src": "mss:s1",
              "dst": "mss:s2", "detail": f"request(h0-r{i})"})
            for i in range(20_000)]
    recorder = TraceRecorder()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for time, kind, node, fields in rows:
            recorder.record(time, kind, node, **fields)
        cost = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(recorder) == len(rows)
    assert cost / len(rows) <= 100


def _mixed_trace(seed):
    """A recorder and the rows it was given: one kind with different key
    sets and orders, container values and ``int`` times."""
    rng = random.Random(seed)
    values = (0, 1.5, "", "cell0", None, False, ["cell0", "cell1"],
              ("a", 2), {"nested": [1]})
    recorder, recorded = TraceRecorder(), []
    for i in range(400):
        time = i // 3 if i % 4 == 0 else i * 0.125   # run(until=<int>) gives ints
        kind = rng.choice(("send", "send", "recv", "request", "deliver"))
        keys = rng.sample(("net", "msg", "msg_id", "dst", "candidates", "detail"),
                          rng.randint(0, 6))
        fields = {key: rng.choice(values) for key in keys}
        if "detail" in fields:
            fields["detail"] = f"describe({i})"
        recorder.record(time, kind, f"n{i % 5}", **fields)
        recorded.append((time, kind, f"n{i % 5}", fields))
    return recorder, recorded


@pytest.mark.parametrize("start, stop", [
    (None, None), (0, None), (None, 17), (-30, None), (-250, -40), (40, 10),
    (399, None), (395, 10_000), (10_000, None), (-10_000, 3), (7, 7)])
def test_rows_come_back_exactly_as_recorded(start, stop):
    recorder, recorded = _mixed_trace(seed=40)
    got, want = list(recorder.rows(start, stop)), recorded[start:stop]
    assert got == want
    assert [list(row[3]) for row in got] == [list(row[3]) for row in want]   # key order
    assert [type(row[0]) for row in got] == [type(row[0]) for row in want]
    assert any(type(row[0]) is int for row in recorded)
    assert list(recorder) == [TraceRecord(*row) for row in recorded]


def test_every_read_builds_fresh_fields():
    recorder = TraceRecorder()
    sent = []
    recorder.add_sink(sent.append)
    recorder.record(1.0, "request", "mh:a", request_id="a-r1", candidates=["c0"])
    reads = [next(recorder.rows())[3], next(recorder.rows(-1, None))[3],
             next(iter(recorder)).fields,
             trace_filter(recorder, kind="request")[0].fields, sent[0].fields]
    assert all(fields == reads[-1] for fields in reads)
    for i, fields in enumerate(reads):
        assert all(fields is not other for other in reads[i + 1:])
    reads[0]["request_id"] = "changed"
    assert next(recorder.rows())[3] == {"request_id": "a-r1", "candidates": ["c0"]}


def test_trace_record_equality_and_no_hashing():
    rec = TraceRecord(1.0, "send", "n", {"a": 1})
    assert rec == TraceRecord(time=1.0, kind="send", node="n", fields={"a": 1})
    assert rec != TraceRecord(1.0, "send", "n", {"a": 2})
    assert rec != TraceRecord(1.0, "recv", "n", {"a": 1})
    assert TraceRecord(0.0, "k", "n").fields == {}
    assert rec.get("a") == 1 and rec.get("b", "dflt") == "dflt"
    with pytest.raises(TypeError):
        hash(rec)
    with pytest.raises(AttributeError):
        rec.extra = 1                        # slotted: no per-row dict


# -- the oracle's subscriptions --------------------------------------------


def test_oracle_hands_each_checker_only_its_kinds():
    seen = []

    class Spy(ExactlyOnceDelivery):
        def on_record(self, rec):
            seen.append(rec.kind)
            super().on_record(rec)

    recorder = TraceRecorder()
    oracle = Oracle([Spy()]).attach(recorder)
    for kind in KINDS:
        recorder.record(1.0, kind, "mh:a", request_id="a-r1")
    oracle.detach()
    recorder.record(2.0, "deliver", "mh:a", request_id="a-r1")
    assert seen == ["deliver"]
    assert oracle.violations == []


class _FailAtFinish(ExactlyOnceDelivery):
    def finish(self, time):
        self.fail(time, "finish")


def test_oracle_window_holds_only_rows_recorded_while_attached():
    recorder = TraceRecorder()
    recorder.record(5.0, "deliver", "mh:a", request_id="a-r1")
    oracle = Oracle([_FailAtFinish()]).attach(recorder)
    assert oracle.window() == []
    recorder.record(6.0, "request", "mh:a", request_id="a-r2")
    oracle.detach()
    recorder.record(7.0, "request", "mh:a", request_id="a-r3")
    assert [rec.time for rec in oracle.window()] == [6.0]
    # finish() defaults to the last row seen, whatever came after.
    [violation] = oracle.finish()
    assert violation.time == 6.0
    assert [rec.time for rec in violation.trace_slice] == [6.0]


def test_oracle_that_saw_no_row_finishes_at_time_zero():
    recorder = TraceRecorder()
    recorder.record(5.0, "deliver", "mh:a", request_id="a-r1")
    oracle = Oracle([_FailAtFinish()]).attach(recorder)
    assert [v.time for v in oracle.finish()] == [0.0]


def test_oracle_reattach_after_detach_is_allowed():
    recorder = TraceRecorder()
    oracle = Oracle([ExactlyOnceDelivery()])
    oracle.attach(recorder)
    oracle.detach()
    oracle.attach(recorder)
    recorder.record(1.0, "deliver", "mh:a", request_id="a-r1")
    recorder.record(2.0, "deliver", "mh:a", request_id="a-r1")
    assert [v.invariant for v in oracle.violations] == ["exactly_once_delivery"]
    with pytest.raises(VerificationError):
        oracle.attach(TraceRecorder())
