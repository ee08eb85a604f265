"""Unified observability: typed metrics, delivery spans, exporters.

The subsystem has three parts (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.registry` — the deterministic typed metrics hub
  (:class:`MetricsHub` with counter/gauge/histogram families, label
  children, and zero-overhead no-op handles when disabled);
* :mod:`repro.obs.spans` — :class:`SpanBuilder`, reconstructing one
  delivery span per client request from trace records (online sink or
  post-hoc);
* :mod:`repro.obs.export` — Prometheus text exposition and canonical
  JSON snapshot renderers.

The legacy :class:`repro.net.monitor.NetworkMonitor` and
:class:`repro.analysis.metrics.MetricsRegistry` are compatibility
facades over one shared hub (see :class:`repro.instruments.Instruments`).
"""

from .export import json_text, prometheus_text, snapshot
from .registry import (
    COUNT_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    LATENCY_BUCKETS,
    MetricsHub,
)
from .spans import DeliverySpan, Hop, SpanBuilder, SpanReport

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "CounterFamily",
    "DeliverySpan",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "Hop",
    "LATENCY_BUCKETS",
    "MetricsHub",
    "SpanBuilder",
    "SpanReport",
    "json_text",
    "prometheus_text",
    "snapshot",
]
