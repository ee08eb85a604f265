"""Targeted tests for remaining small surfaces: harness tables, metric
registry details, sequence filters, MSS edge handlers, QRPC states, and
a cross-feature integration (ordered multicast + proxy migration)."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import MetricsRegistry
from repro.analysis.sequence import extract_chart
from repro.experiments.harness import Table, dump_tables
from repro.hosts.qrpc import QueuedRpcClient
from repro.net.latency import ConstantLatency
from repro.servers.echo import EchoServer
from repro.servers.ordered_multicast import OrderedGroupServer, join_ordered_group
from repro.sim import TraceRecorder
from repro.types import MhState, NodeId

from tests.conftest import make_world


# -- harness ------------------------------------------------------------------

def test_table_csv_rendering():
    table = Table(title="T", columns=["name", "value"])
    table.add_row("plain", 1.23456789)
    table.add_row("with,comma", 'say "hi"')
    csv = table.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "name,value"
    assert lines[1] == "plain,1.23457"
    assert lines[2] == '"with,comma","say ""hi"""'


def test_dump_tables_joins():
    t1 = Table(title="A", columns=["x"])
    t2 = Table(title="B", columns=["y"])
    text = dump_tables([t1, t2])
    assert "A" in text and "B" in text and "\n\n" in text


# -- metrics ------------------------------------------------------------------

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


# -- sequence filters --------------------------------------------------------------

def test_extract_chart_mh_filter():
    rec = TraceRecorder()
    rec.record(1.0, "send", "mss:a", msg="dereg", dst="mss:b",
               detail="dereg(mh:x,#1)")
    rec.record(2.0, "send", "mss:a", msg="dereg", dst="mss:b",
               detail="dereg(mh:y,#1)")
    rec.record(3.0, "send", "mh:x", msg="request", dst="mss:a",
               detail="request(r)")
    chart = extract_chart(rec, mh="mh:x")
    assert len(chart) == 2  # the dereg mentioning mh:x + the uplink from mh:x


# -- MSS edge handlers ---------------------------------------------------------------

def test_leave_with_pending_proxy_counted(world):
    from repro.servers.echo import ManualServer

    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    client.request("manual", 1)
    world.run(until=1.0)
    # Force the violation: bypass the client-side guard.
    from repro.core.protocol import LeaveMsg
    world.wireless.uplink(host, LeaveMsg(mh=host.node_id))
    world.run(until=2.0)
    assert world.metrics.count("mh_left_with_pending") == 1


def test_unhandled_wired_message_counted(world):
    from repro.core.protocol import ServerAckMsg

    station = world.station(world.cells[0])
    server = world.add_server("echo")
    # A server-bound message delivered to an MSS has no handler there.
    world.wired.send(server.node_id, station.node_id,
                     ServerAckMsg(request_id="r1"))
    world.run_until_idle()
    assert world.metrics.count("mss_unhandled_messages") == 1


def test_duplicate_join_confirms_again(world):
    world.add_host("m", world.cells[0])
    world.run_until_idle()
    host = world.hosts["m"]
    from repro.core.protocol import JoinMsg

    world.wireless.uplink(host, JoinMsg(mh=host.node_id, seq=host._reg_seq))
    world.run_until_idle()
    assert host.registered  # re-confirmed, no state change
    station = world.station(world.cells[0])
    assert station.pref_of(host.node_id) is not None


def test_inbox_custom_priority_fn(sim):
    from repro.core.protocol import AckMsg, RequestMsg
    from repro.stations.inbox import Inbox
    from repro.types import RequestId

    handled = []
    # Invert the default: requests beat acks.
    inbox = Inbox(sim, lambda m: handled.append(m.kind), proc_delay=0.1,
                  priority_fn=lambda m: 0 if m.kind == "request" else 1)
    blocker = AckMsg(mh=NodeId("mh:m"), request_id=RequestId("r0"), delivery_id=0)
    inbox.push(blocker)
    inbox.push(AckMsg(mh=NodeId("mh:m"), request_id=RequestId("r1"), delivery_id=1))
    inbox.push(RequestMsg(mh=NodeId("mh:m"), request_id=RequestId("r2"), service="s"))
    sim.run()
    assert handled == ["ack", "request", "ack"]


# -- QRPC states -----------------------------------------------------------------------

def test_qrpc_outbox_skips_completed(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0], join=False)
    qclient = QueuedRpcClient(client.host)
    host = client.host
    host.join(world.cells[0])
    world.run_until_idle()
    host.deactivate()
    p = qclient.request("echo", 1)
    # Simulate an out-of-band completion before the flush.
    p.completed_at = world.sim.now
    host.activate()
    world.run_until_idle()
    assert world.metrics.count("qrpc_flushed") == 0


# -- cross-feature integration -----------------------------------------------------------

def test_ordered_multicast_with_proxy_migration():
    """A roaming ordered-group member whose proxy migrates mid-stream
    still observes the exact sequence."""
    world = make_world(n_cells=8, proxy_migrate_distance=3.0)
    server = world.add_server("og", OrderedGroupServer)
    member = world.add_host("member", world.cells[0])
    sender = world.add_host("sender", world.cells[4])
    host = world.hosts["member"]
    membership = join_ordered_group(member, "og", "g")
    world.run(until=1.0)

    for i in range(7):
        sender.request("og", {"op": "omcast", "group": "g", "data": i})
        world.run(until=world.sim.now + 0.5)
        if i < 7 - 1:
            host.migrate_to(world.cells[i + 1])
            world.run(until=world.sim.now + 0.5)

    world.run(until=world.sim.now + 15.0)
    assert world.metrics.count("proxies_moved_in") >= 1
    assert world.metrics.count("subscriptions_relocated") >= 1
    assert membership.delivered == list(range(7))
    assert membership.holdback_depth == 0
