"""Delivery-span reconstruction and observability non-interference.

Three layers:

* synthetic traces — the :class:`SpanBuilder` pairing/attribution rules
  on hand-written records;
* the pinned fuzz corpus — every replayed case must reconstruct exactly
  one span per issued client request, agree with the client-side
  delivery counts and the proxy retransmission metric, and every row
  about a message must name the request its ``describe()`` text names;
* non-interference — running a scenario with the span recorder fully on
  must leave the simulation event-identical to a fully disabled run, and
  the monitor's sent/received families must stay in parity.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.experiments.bench import BenchPreset, build_config, run_scenario
from repro.instruments import Instruments
from repro.obs import SpanBuilder, snapshot
from repro.servers.multicast import GroupServer
from repro.sim import TraceRecorder
from repro.sim.tracing import TraceRecord
from repro.verify import fuzz, load_case

from tests.conftest import make_world, per_kind

CORPUS = Path(__file__).parent / "corpus"
SEED_FILES = sorted(CORPUS.glob("*.json"))


def rec(time: float, kind: str, node: str, **fields) -> TraceRecord:
    return TraceRecord(time=time, kind=kind, node=node, fields=fields)


# -- synthetic traces ---------------------------------------------------------


def test_span_from_synthetic_happy_path():
    records = [
        rec(1.0, "request", "mh0", request_id="r1", service="echo"),
        rec(1.0, "send", "mh0", net="wireless", msg="request",
            msg_id=1, request_id="r1"),
        rec(1.005, "recv", "s0", net="wireless", msg="request",
            msg_id=1, request_id="r1"),
        rec(1.005, "send", "s0", net="wired", msg="server_request",
            msg_id=2, request_id="r1"),
        rec(1.015, "recv", "srv", net="wired", msg="server_request",
            msg_id=2, request_id="r1"),
        rec(1.215, "send", "srv", net="wired", msg="server_result",
            msg_id=3, request_id="r1"),
        rec(1.225, "recv", "s0", net="wired", msg="server_result",
            msg_id=3, request_id="r1"),
        rec(1.225, "proxy_admit", "s0", request_id="r1"),
        rec(1.230, "send", "s0", net="wireless", msg="wireless_result",
            msg_id=4, request_id="r1"),
        rec(1.235, "recv", "mh0", net="wireless", msg="wireless_result",
            msg_id=4, request_id="r1"),
        rec(1.235, "deliver", "mh0", request_id="r1"),
        rec(1.240, "send", "mh0", net="wireless", msg="ack",
            msg_id=5, request_id="r1"),
        rec(1.245, "recv", "s0", net="wireless", msg="ack",
            msg_id=5, request_id="r1"),
        rec(1.245, "proxy_ack", "s0", request_id="r1"),
    ]
    report = SpanBuilder.from_records(records)
    assert report.issued == 1 and report.accounted()
    span = report.spans[0]
    assert span.status == "acked"
    assert span.mh == "mh0" and span.service == "echo"
    assert span.proxy_node == "s0"
    assert span.latency == pytest.approx(0.235)
    assert span.wireless_time == pytest.approx(0.010)
    assert span.wired_time == pytest.approx(0.020)
    assert span.server_time == pytest.approx(0.200)
    # The proxy residency is the exact remainder: the four stages must
    # sum to the whole span (the 100%-attribution contract).
    assert (span.wireless_time + span.wired_time + span.server_time
            + span.proxy_time) == pytest.approx(span.latency)
    # The Ack hop is after delivery: counted as a hop, not as latency.
    assert len(span.hops) == 5


def test_client_retry_keeps_first_issue_time():
    records = [
        rec(1.0, "request", "mh0", request_id="r1", service="echo"),
        rec(5.0, "request", "mh0", request_id="r1", service="echo"),
        rec(6.0, "deliver", "mh0", request_id="r1"),
    ]
    report = SpanBuilder.from_records(records)
    assert report.issued == 1
    assert report.spans[0].latency == pytest.approx(5.0)
    assert report.spans[0].status == "delivered"


def test_dropped_attempts_count_but_never_pair():
    records = [
        rec(1.0, "request", "mh0", request_id="r1"),
        rec(1.0, "send", "mh0", net="wireless", msg="request",
            msg_id=1, request_id="r1"),
        rec(1.005, "drop", "wireless", net="wireless", msg="request",
            msg_id=1, request_id="r1"),
        rec(3.0, "send", "mh0", net="wireless", msg="request",
            msg_id=2, request_id="r1"),
        rec(3.005, "recv", "s0", net="wireless", msg="request",
            msg_id=2, request_id="r1"),
    ]
    report = SpanBuilder.from_records(records)
    span = report.spans[0]
    assert span.drops == 1
    assert len(span.hops) == 1
    assert span.status == "pending"
    assert span.latency is None


def test_duplicate_deliver_records_are_counted_once_for_latency():
    records = [
        rec(1.0, "request", "mh0", request_id="r1"),
        rec(2.0, "deliver", "mh0", request_id="r1"),
        rec(4.0, "deliver", "mh0", request_id="r1"),
    ]
    span = SpanBuilder.from_records(records).spans[0]
    assert span.deliveries == 2
    assert span.latency == pytest.approx(1.0)


# -- pinned corpus ------------------------------------------------------------


def _replay(path: Path):
    """Re-run one corpus case keeping the full trace for span building."""
    case, protocol = load_case(path)
    world = fuzz.build_fuzz_world(case, protocol)
    for op in case.ops:
        world.sim.schedule_at(op.time, fuzz._execute, world, op,
                              label=f"fuzz:{op.op}")
    world.run(until=case.config.duration)
    fuzz._drain(world, case.config.drain_rounds, case.config.drain_window)
    return world, protocol


@pytest.mark.parametrize("path", SEED_FILES, ids=lambda p: p.stem)
def test_corpus_spans_account_for_every_request(path):
    world, protocol = _replay(path)
    report = SpanBuilder.from_records(world.recorder)

    issued_ids = sorted(rid for c in world.clients.values()
                        for rid in c.requests)
    assert sorted(s.request_id for s in report.spans) == issued_ids
    assert report.accounted()

    # Terminal delivery is exactly-once per span, and the span view of
    # "delivered" agrees with the clients' own completion accounting.
    assert all(s.deliveries <= 1 for s in report.spans)
    delivered = sum(len(c.completed) for c in world.clients.values())
    assert sum(1 for s in report.spans if s.deliveries == 1) == delivered

    # Per-span retransmit counts must sum to the proxy metric: the spans
    # and the oracle see the same recovery activity.
    assert (sum(s.retransmits for s in report.spans)
            == world.metrics.count("proxy_retransmissions"))

    if protocol == "direct":
        # These seeds pin no_lost_result violations: the span view must
        # show the same loss the oracle caught.
        assert any(s.delivered_at is None for s in report.spans)
    else:
        # The RDP stress seeds are pinned violation-free: every request
        # must show a delivered span.
        assert all(s.deliveries == 1 for s in report.spans)


#: The describe-text parser spans once found request ids with, kept as the
#: reference the rows' ``request_id`` field must agree with: the message
#: kinds whose ``describe()`` leads with the request id, and the parse.
OLD_RID_KINDS = frozenset({
    "request", "ack", "wireless_result",
    "forwarded_request", "result_forward", "ack_forward", "result_bounce",
    "server_request", "server_result", "server_ack",
    "notification", "subscription_end",
})
OLD_RID_RE = re.compile(r"^[a-z_]+\(([^\s,)#]+)")


def _subscription_world():
    """Notifications and a subscription end, which no corpus case sends."""
    world = make_world()
    world.add_server("groups", GroupServer)
    a = world.add_host("a", world.cells[0])
    b = world.add_host("b", world.cells[1])
    sub = a.subscribe("groups", {"group": "g"})
    world.run(until=1.0)
    world.hosts["a"].migrate_to(world.cells[2])
    b.request("groups", {"op": "mcast", "group": "g", "data": "news"})
    world.run(until=2.0)
    a.request("groups", {"op": "leave", "group": "g",
                         "member": str(sub.request_id)})
    world.run_until_idle()
    return world


@pytest.mark.parametrize("path", [*SEED_FILES, None],
                         ids=lambda p: p.stem if p else "subscriptions")
def test_rows_name_the_request_their_describe_text_names(path):
    world = _subscription_world() if path is None else _replay(path)[0]
    named = set()
    for _time, kind, _node, fields in world.recorder.rows():
        if kind not in ("send", "recv"):
            continue
        if fields["msg"] in OLD_RID_KINDS:
            parsed = OLD_RID_RE.match(fields["detail"]).group(1)
            rid = fields.get("request_id")
            # A notification's result is a request of its own,
            # ``<subscription>#n<k>``; the old parse cut it back to the
            # subscription.
            assert rid == parsed or str(rid).startswith(parsed + "#n"), fields
            named.add(fields["msg"] if rid == parsed else "#n")
        else:
            assert "request_id" not in fields, fields
    assert "request" in named
    if path is None:
        assert {"notification", "subscription_end", "#n"} <= named


def test_a_notification_result_is_a_span_of_its_own():
    report = SpanBuilder.from_records(_subscription_world().recorder)
    children = [s for s in report.spans if "#n" in s.request_id]
    assert len(children) == 2
    for span in children:
        assert span.mh == "mh:a" and span.status == "acked"
        # Opened when the proxy took the notification's result, so the
        # span runs from there to the MH.
        assert span.issued_at == span.result_at_proxy
        assert span.latency > 0 and span.hops
        assert span.wireless_time > 0 and span.proxy_time >= 0


def test_a_notification_span_is_not_an_issued_request():
    world = _subscription_world()
    report = SpanBuilder.from_records(world.recorder)
    requests = [row for row in world.recorder.rows() if row[1] == "request"]
    assert len(requests) == 3 and len(report.spans) == 5
    assert report.issued == 3 and report.accounted()
    assert report.summary()["issued"] == 3


# -- non-interference ---------------------------------------------------------

_TINY = BenchPreset(name="tiny", citizens=15, grid=3, duration=8.0)


def _fingerprint(world, workloads):
    return {
        "events": world.sim.events_executed,
        "final_time": round(world.sim.now, 9),
        "kinds": per_kind(world.monitor, "sent"),
        "metrics": snapshot(world.instruments.hub),
        "issued": sum(w.stats.issued for w in workloads),
    }


def test_span_recording_does_not_perturb_the_simulation():
    # Every id is drawn from the world's own engine, so two worlds in one
    # process compare byte for byte (modelled sizes included).
    off = run_scenario(_TINY, build_config(_TINY),
                       instruments=Instruments.disabled())
    builder = SpanBuilder()
    recorder = TraceRecorder(kinds=SpanBuilder.KINDS,
                             sink=builder.on_record)
    on = run_scenario(_TINY, build_config(_TINY, trace=True),
                      instruments=Instruments(recorder=recorder))
    assert _fingerprint(*off) == _fingerprint(*on)
    report = builder.report()
    assert report.issued == sum(w.stats.issued for w in on[1])
    assert report.accounted()


# -- monitor sent/received parity ---------------------------------------------


def test_monitor_parity_on_loss_free_static_run():
    """Without loss or mobility every sent message is delivered, so the
    received family must mirror the sent family per (net, kind)."""
    world = make_world()
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    for i in range(5):
        world.sim.schedule_at(1.0 + i, client.request, "echo", {"n": i})
    world.run_until_idle()
    mon = world.monitor
    assert sum(per_kind(mon, "sent").values()) > 0
    for net in ("wired", "wireless"):
        assert per_kind(mon, "sent", net) == per_kind(mon, "received", net)


def test_monitor_parity_with_loss_and_mobility():
    """With wireless loss and migrations, conservation still holds:
    sent == received + dropped for every (net, kind) pair."""
    world = make_world(seed=7, wireless_loss=0.2)
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], retry_interval=2.0)
    host = world.hosts["m"]
    for i in range(8):
        world.sim.schedule_at(1.0 + 2.0 * i, client.request, "echo", {"n": i})
    for i, t in enumerate((2.0, 5.5, 9.0, 12.5)):
        world.sim.schedule_at(
            t, lambda i=i: host.migrate_to(world.cells[(i + 1) % 3]))
    world.run(until=30.0)
    world.run_until_idle()
    mon = world.monitor
    pairs = {(net, kind) for net in ("wired", "wireless")
             for kind in per_kind(mon, "sent", net)}
    assert pairs
    for net, kind in sorted(pairs):
        assert mon.count(kind, net) == (
            per_kind(mon, "received", net).get(kind, 0)
            + mon.drops_of(net, kind=kind)
        ), f"conservation broken for {(net, kind)}"
