"""Tests for the per-request latency decomposition of delivery spans
(admission, service, delivery — the segments experiment AN10 sweeps)."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.obs.spans import DeliverySpan, SpanBuilder
from repro.servers.echo import EchoServer, ManualServer


def _spans(world):
    return SpanBuilder.from_records(world.recorder).spans


def test_breakdown_segments_add_up(world):
    world.add_server("slow", EchoServer, service_time=ConstantLatency(0.5))
    client = world.add_host("m", world.cells[0])
    world.run(until=0.5)
    p = client.request("slow", 1)
    world.run_until_idle()
    (span,) = [s for s in _spans(world) if s.complete]
    admission, service, delivery = span.segments()
    assert span.latency == pytest.approx(admission + service + delivery)
    assert service == pytest.approx(0.5, abs=0.05)
    assert span.latency == pytest.approx(p.latency, abs=1e-9)


def test_breakdown_local_proxy_forward_counted(world):
    """Co-located proxy: the forward is a local dispatch, still traced."""
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    world.run(until=0.5)
    client.request("echo", 1)
    world.run_until_idle()
    spans = _spans(world)
    assert spans and all(s.complete for s in spans)


def test_breakdown_delivery_absorbs_inactivity(world):
    server = world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    host = world.hosts["m"]
    world.run(until=0.5)
    p = client.request("manual", 1)
    world.run(until=1.0)
    host.deactivate()
    server.release(p.request_id)
    world.run(until=5.0)
    host.activate()
    world.run_until_idle()
    (span,) = [s for s in _spans(world) if s.complete]
    _admission, service, delivery = span.segments()
    assert delivery > 3.0          # waited out the nap
    assert service < 1.0


def test_incomplete_requests_excluded_from_report(world):
    world.add_server("manual", ManualServer)
    client = world.add_host("m", world.cells[0])
    world.run(until=0.5)
    client.request("manual", 1)           # never answered
    world.run(until=1.0)
    (span,) = _spans(world)
    assert span.admitted_at is not None and not span.complete


def test_report_counts_complete_requests(world):
    world.add_server("echo")
    client = world.add_host("m", world.cells[0])
    world.run(until=0.5)
    client.request("echo", 1)
    client.request("echo", 2)
    world.run_until_idle()
    assert sum(s.complete for s in _spans(world)) == 2


def test_breakdown_dataclass_defaults():
    span = DeliverySpan(request_id="r", mh="m", issued_at=1.0)
    assert not span.complete
    assert span.segments() == (0.0, 0.0, 0.0)
    span.admitted_at = 1.5                 # admitted, never answered
    assert not span.complete
    assert span.segments() == (0.0, 0.0, 0.0)
