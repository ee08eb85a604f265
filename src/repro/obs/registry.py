"""Typed, deterministic, sim-time-aware metrics registry.

The hub is the single accounting surface of a simulated world: every
counter the protocol entities bump — network message counts, protocol
events, latency samples — lives in one :class:`MetricsHub` as a typed
metric *family* (:class:`CounterFamily`, :class:`GaugeFamily`,
:class:`HistogramFamily`) with optional labels.  The legacy
:class:`~repro.net.monitor.NetworkMonitor` and
:class:`~repro.analysis.metrics.MetricsRegistry` interfaces are thin
facades over this module, and the exporters in :mod:`repro.obs.export`
render the same state as Prometheus text exposition or a canonical JSON
snapshot.

Design constraints, in order:

* **Determinism.**  Nothing here reads a wall clock or draws randomness;
  identical simulations produce identical hub contents, and exports
  iterate in sorted order so snapshots are byte-stable run over run.
  Timestamps, where they appear, are *simulated* time supplied by the
  caller.
* **One probe per count.**  ``family.labels(...)`` probes ``children``
  with the caller's own argument tuple; a hit — every call after a label
  set's first, when the values are strings — costs that one dict lookup,
  and the ``str()`` normalisation, arity check and child creation run
  only on a miss.  The facades do not cache children (measured: no
  faster, more memory); a call site that wants to skip even the probe
  keeps the returned handle and bumps it directly.

Histogram bucket bounds are fixed at registration (Prometheus-style
cumulative ``le`` buckets with an implicit ``+Inf``), so two runs of the
same scenario fill identical buckets.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type, Union

from ..errors import ConfigError

#: Default bucket bounds for simulated-seconds histograms (request
#: latency, hand-off duration, redelivery delay, ...).
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

#: Default bucket bounds for small-integer histograms (attempt counts,
#: hop counts, queue depths).
COUNT_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 5, 8, 13, 21, 34, 55)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelValues = Tuple[str, ...]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigError(f"invalid metric name {name!r}")
    return name


# -- live handles -------------------------------------------------------------


class Counter:
    """A monotonically increasing count (one label child or unlabeled)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        if amount < 0:
            raise ConfigError(f"counter decremented by {amount!r}")
        self.value += amount


class Gauge:
    """A value that can go up and down, or be sampled from a callable."""

    __slots__ = ("value", "_fn")

    def __init__(self) -> None:
        self.value: float = 0
        self._fn: Optional[Callable[[], float]] = None

    def set_function(self, fn: Callable[[], float]) -> None:
        """Sample the gauge lazily at export/scrape time."""
        self._fn = fn

    def read(self) -> float:
        return float(self._fn()) if self._fn is not None else self.value


class Histogram:
    """Fixed-bound cumulative histogram (Prometheus semantics).

    ``counts[i]`` counts observations ``<= bounds[i]``-exclusive style is
    avoided: like Prometheus, bucket *i* accumulates ``v <= bounds[i]``
    at export time; internally we store per-bucket (non-cumulative)
    counts and cumulate when read.  ``track=True`` additionally keeps the
    raw sample list — used by the :class:`MetricsRegistry` facade, whose
    ``samples()`` API predates the hub.
    """

    __slots__ = ("bounds", "counts", "total", "sum", "samples")

    def __init__(self, bounds: Sequence[float], track: bool = False) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)  # +Inf tail
        self.total = 0
        self.sum: float = 0.0
        self.samples: Optional[List[float]] = [] if track else None

    def observe(self, value: Union[int, float]) -> None:
        self.total += 1
        self.sum += value
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value (bisect without imports)
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        self.counts[lo] += 1
        if self.samples is not None:
            self.samples.append(float(value))

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, one per bound plus the +Inf tail."""
        out: List[int] = []
        running = 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


# -- families -----------------------------------------------------------------


class MetricFamily:
    """One named metric with a fixed label schema and typed children.

    An unlabeled family has exactly one child (label values ``()``); a
    labeled family materializes children on first use.  Children are the
    handles call sites keep.
    """

    kind = "untyped"

    def __init__(self, hub: "MetricsHub", name: str, help: str,
                 labels: Sequence[str]) -> None:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ConfigError(f"invalid label name {label!r} on {name!r}")
        self.hub = hub
        self.name = _check_name(name)
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self.children: Dict[LabelValues, object] = {}

    def _make_child(self) -> object:  # pragma: no cover - overridden
        raise NotImplementedError

    def _child(self, raw: Tuple[object, ...]) -> object:
        """The slow path of ``labels()``: *raw* missed ``children``, so
        normalise it to the string tuple children are keyed by (one child
        for ``7``, ``"7"`` and a ``NodeId``; sortable exports) and create
        the child on first use."""
        values = tuple(str(v) for v in raw)
        child = self.children.get(values)
        if child is None:
            if len(values) != len(self.label_names):
                raise ConfigError(
                    f"{self.name}: expected labels {self.label_names}, "
                    f"got {values!r}")
            child = self.children[values] = self._make_child()
        return child

    def items(self) -> List[Tuple[LabelValues, object]]:
        """Children in sorted label order (deterministic export)."""
        return sorted(self.children.items())


class CounterFamily(MetricFamily):
    kind = "counter"

    def _make_child(self) -> Counter:
        return Counter()

    def labels(self, *values: str) -> Counter:
        child = self.children.get(values)
        if child is None:
            child = self._child(values)
        assert isinstance(child, Counter)
        return child

    @property
    def value(self) -> float:
        """Sum over all children (the family total)."""
        return sum(c.value for c in self.children.values())  # type: ignore[attr-defined]


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _make_child(self) -> Gauge:
        return Gauge()

    def labels(self, *values: str) -> Gauge:
        child = self.children.get(values)
        if child is None:
            child = self._child(values)
        assert isinstance(child, Gauge)
        return child

    def set_function(self, fn: Callable[[], float]) -> None:
        self.labels().set_function(fn)


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(self, hub: "MetricsHub", name: str, help: str,
                 labels: Sequence[str], buckets: Sequence[float],
                 track: bool = False) -> None:
        super().__init__(hub, name, help, labels)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigError(
                f"{name}: bucket bounds must be non-empty, sorted, unique "
                f"(got {buckets!r})")
        self.buckets = bounds
        self.track = track

    def _make_child(self) -> Histogram:
        return Histogram(self.buckets, track=self.track)

    def labels(self, *values: str) -> Histogram:
        child = self.children.get(values)
        if child is None:
            child = self._child(values)
        assert isinstance(child, Histogram)
        return child

    def observe(self, value: Union[int, float]) -> None:
        self.labels().observe(value)


# -- the hub ------------------------------------------------------------------


class MetricsHub:
    """The world's metric registry: named typed families, one namespace.

    Registration is idempotent for an identical schema (same type, label
    names and — for histograms — bucket bounds) so independent modules
    can ``hub.counter("rdp_x_total", ...)`` without coordinating; a
    conflicting re-registration raises :class:`ConfigError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # -- registration ------------------------------------------------------

    def _register(self, cls: Type[MetricFamily], name: str, help: str,
                  labels: Sequence[str], **extra: object) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            same = (type(existing) is cls
                    and existing.label_names == tuple(labels))
            if same and cls is HistogramFamily:
                assert isinstance(existing, HistogramFamily)
                same = existing.buckets == tuple(
                    float(b) for b in extra["buckets"])  # type: ignore[union-attr]
            if not same:
                raise ConfigError(
                    f"metric {name!r} re-registered with a different schema")
            return existing
        family = cls(self, name, help, labels, **extra)
        self._families[name] = family
        return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> CounterFamily:
        family = self._register(CounterFamily, name, help, labels)
        assert isinstance(family, CounterFamily)
        return family

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> GaugeFamily:
        family = self._register(GaugeFamily, name, help, labels)
        assert isinstance(family, GaugeFamily)
        return family

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = LATENCY_BUCKETS,
                  track: bool = False) -> HistogramFamily:
        family = self._register(HistogramFamily, name, help, labels,
                                buckets=buckets, track=track)
        assert isinstance(family, HistogramFamily)
        return family

    # -- introspection -----------------------------------------------------

    def families(self) -> List[MetricFamily]:
        """All families, sorted by name (deterministic export order)."""
        return [self._families[name] for name in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)


__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "LATENCY_BUCKETS",
    "MetricFamily",
    "MetricsHub",
]
