"""Protocol-level metric counters and timing series.

Network-level counts (messages, bytes) live in
:class:`repro.net.monitor.NetworkMonitor`; this registry tracks *protocol*
events: retransmissions, duplicate deliveries, proxies created/deleted,
hand-offs, ignored Acks, and latency samples such as request round-trip
time and hand-off duration.

Since the observability subsystem landed this class is a thin
compatibility facade over :class:`repro.obs.registry.MetricsHub`.  Every
``incr``-style counter becomes a counter family ``rdp_<name>_total``
labeled by node — node-less increments use the empty-string child, so
the family total (what :meth:`count` returns) equals the sum of all
increments exactly as the old global Counter did, and per-node children
double as the :meth:`per_node` breakdown.  Every ``observe`` series
becomes a histogram family ``rdp_<name>`` registered with raw-sample
tracking so :meth:`samples`/:meth:`mean` keep their original behaviour.
The exporters therefore see protocol counters with no second
bookkeeping path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.registry import (
    LATENCY_BUCKETS,
    CounterFamily,
    Histogram,
    HistogramFamily,
    MetricsHub,
)


class MetricsRegistry:
    """Counters plus named sample series (hub-backed facade).

    Pass a shared *hub* to co-register with a world's other metrics
    (what :class:`repro.instruments.Instruments` does); without one the
    registry owns a private hub, matching the old standalone behaviour.
    """

    def __init__(self, hub: Optional[MetricsHub] = None) -> None:
        self.hub = hub if hub is not None else MetricsHub()
        self._counters: Dict[str, CounterFamily] = {}
        self._series: Dict[str, HistogramFamily] = {}

    # -- registration ------------------------------------------------------

    def _counter(self, name: str) -> CounterFamily:
        family = self._counters.get(name)
        if family is None:
            family = self.hub.counter(
                f"rdp_{name}_total", f"Protocol events: {name}",
                labels=("node",))
            self._counters[name] = family
        return family

    def _histogram(self, name: str) -> HistogramFamily:
        family = self._series.get(name)
        if family is None:
            family = self.hub.histogram(
                f"rdp_{name}", f"Protocol samples: {name}",
                buckets=LATENCY_BUCKETS, track=True)
            self._series[name] = family
        return family

    # -- write path --------------------------------------------------------

    def incr(self, name: str, amount: int = 1, node: Optional[str] = None) -> None:
        """Bump a counter; *node* attributes it to that node's child.

        The family total — the old "global" counter — is the sum over
        children, so node-attributed and plain increments both count.
        """
        self._counter(name).labels(node if node is not None else "").inc(amount)

    def observe(self, name: str, value: float) -> None:
        """Append one sample to the named series."""
        self._histogram(name).labels().observe(value)

    # -- read path ---------------------------------------------------------

    def count(self, name: str) -> int:
        family = self._counters.get(name)
        return int(family.value) if family is not None else 0

    def node_count(self, node: str, name: str) -> int:
        family = self._counters.get(name)
        if family is None:
            return 0
        child = family.children.get((node,))
        return int(child.value) if child is not None else 0  # type: ignore[attr-defined]

    def samples(self, name: str) -> List[float]:
        family = self._series.get(name)
        if family is None:
            return []
        child = family.children.get(())
        if not isinstance(child, Histogram) or child.samples is None:
            return []
        return child.samples

    def per_node(self, name: str) -> Dict[str, int]:
        """The named counter's value for every node that touched it."""
        family = self._counters.get(name)
        if family is None:
            return {}
        return {
            node: int(child.value)  # type: ignore[attr-defined]
            for (node,), child in family.children.items()
            if node != ""
        }
