"""End-to-end loopback cluster: real processes, real UDP, real clocks.

One small cluster (2 stations, 2 hosts, light shaped loss) is enough to
exercise the whole live stack — fork + pre-bound sockets, wire codec,
selective-ack wired transport (the sim's own ``ReliableLink`` on the UDP
socket), driver-side radio, migration, merged trace gating — against
the same oracle and span accounting the sim uses.  Kept deliberately
small so it stays fast; the CI ``live-smoke`` job runs the bigger preset
through the CLI, and ``tests/test_live_transport.py`` covers the wired
transport alone, without a fork.
"""

import pathlib
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.live.clock import LiveClock  # noqa: E402
from repro.live.cluster import ClusterSpec, _judge, run_cluster  # noqa: E402
from repro.live.crossval import crossval_report  # noqa: E402
from repro.live.node import dump_trace  # noqa: E402
from repro.sim.tracing import TraceRecorder  # noqa: E402

SPEC = ClusterSpec(seed=7, n_cells=2, n_hosts=2, requests_per_host=2,
                   wired_loss=0.05, request_gap=0.1, host_stagger=0.05,
                   migrate_at=0.3, deadline=20.0, grace=1.0)


@pytest.fixture(scope="module")
def result():
    """Run the cluster once; every test below judges the same run."""
    return run_cluster(SPEC)


def test_cluster_delivers_every_request_exactly_once(result):
    assert result.issued == SPEC.n_hosts * SPEC.requests_per_host
    assert result.completed == result.issued, result.notes
    assert not result.violations, result.violations
    assert result.ok, result.notes


def test_every_span_is_accounted_for(result):
    assert result.accounted
    report = result.report
    assert report.issued == result.issued
    assert report.acked == result.issued, (
        "every span should have closed with an Ack, not merely delivered")


def test_merged_trace_spans_both_processes(result):
    """The merged trace must contain records from the driver process
    (``request``/``deliver`` come from the MHs it hosts) and from the
    forked station processes (``proxy_admit``/``proxy_ack`` only happen
    inside an MSS) on one time axis — that is the whole point of the
    shared LiveClock epoch."""
    assert result.counts.get("request", 0) == result.issued
    assert result.counts.get("deliver", 0) == result.issued
    assert result.counts.get("proxy_admit", 0) >= result.issued
    assert result.counts.get("proxy_ack", 0) >= result.issued


def test_latencies_are_wall_clock_positive(result):
    assert len(result.latencies) == result.completed
    assert all(0.0 < lat < SPEC.deadline for lat in result.latencies)


def test_crossval_report_shows_parity(result):
    report = crossval_report(SPEC, result)
    assert report["parity"]["both_delivered_everything"]
    assert report["parity"]["live_exactly_once"]
    assert report["parity"]["live_span_accounted"]
    sim = report["sim"]
    assert sim["completed"] == result.issued


# -- the judge alone, on hand-written traces ---------------------------------


def _recorder(rows):
    recorder = TraceRecorder()
    for time, kind in rows:
        recorder.record(time, kind, "n", msg_id=1)
    return recorder


def _dump_children(tmp_path, child_rows):
    paths = []
    for i, rows in enumerate(child_rows):
        paths.append(tmp_path / f"trace_s{i}.jsonl")
        dump_trace(_recorder(rows), str(paths[-1]))
    return paths


def _judge_traces(driver_rows, paths):
    driver = SimpleNamespace(recorder=_recorder(driver_rows), clients={})
    notes = []
    result = _judge(ClusterSpec(), driver, [str(p) for p in paths],
                    LiveClock.start(), notes)
    return result, notes


def test_judge_merges_equal_times_driver_first_then_children_in_order(tmp_path):
    # Every row has its own kind, so ``counts`` lists the merge order.
    paths = _dump_children(tmp_path, [
        [(1.0, "a1"), (0.5, "a.5"), (1.0, "a1b")],
        [(0.5, "b.5"), (1.0, "b1")],
        [(1.0, "c1"), (0.25, "c.25")]])
    result, notes = _judge_traces([(1.0, "d1"), (0.5, "d.5")], paths)
    assert list(result.counts) == [
        "c.25", "d.5", "a.5", "b.5", "d1", "a1", "a1b", "b1", "c1"]
    assert notes == []


def test_judge_keeps_the_rows_before_a_cut_last_line(tmp_path):
    # A station terminated mid-dump leaves its last line cut short.
    [path] = _dump_children(tmp_path, [[(1.0, "send"), (2.0, "recv"), (3.0, "deliver")]])
    text = path.read_text()
    path.write_text(text[:text.rindex("\n", 0, -1) + 12])
    result, notes = _judge_traces([(0.5, "request")], [path])
    assert result.counts == {"request": 1, "send": 1, "recv": 1}
    assert notes == ["truncated child trace trace_s0.jsonl: kept 2 rows"]
