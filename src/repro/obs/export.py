"""Metric exporters: Prometheus text exposition and canonical JSON.

Both render a :class:`~repro.obs.registry.MetricsHub` deterministically:
families sorted by name, children sorted by label values, floats
formatted with ``repr`` (shortest round-trip form).  Two identical
simulations therefore export byte-identical text — the property the
``observe-smoke`` CI job diffs.

The Prometheus renderer follows the text exposition format 0.0.4:
``# HELP``/``# TYPE`` headers, ``_bucket{le="..."}`` cumulative
histogram series with a ``+Inf`` bucket, and ``_sum``/``_count``
companions.  Timestamps are deliberately omitted — sim-time is not
wall-time; :func:`snapshot` carries the caller's simulated time in
the JSON instead.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from .registry import (
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    MetricsHub,
)

_ESCAPES = str.maketrans({"\\": r"\\", '"': r"\"", "\n": r"\n"})


def _fmt(value: float) -> str:
    """Prometheus sample value: ints bare, floats via repr."""
    if isinstance(value, bool):  # bools are ints; don't render True
        return "1" if value else "0"
    if isinstance(value, int) or (isinstance(value, float)
                                  and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _label_str(names: Tuple[str, ...], values: Tuple[str, ...],
               extra: str = "") -> str:
    parts = [f'{n}="{str(v).translate(_ESCAPES)}"'
             for n, v in zip(names, values)]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def prometheus_text(hub: MetricsHub) -> str:
    """Render the hub in Prometheus text exposition format 0.0.4."""
    lines: List[str] = []
    for family in hub.families():
        if not family.children:
            continue
        lines.append(f"# HELP {family.name} "
                     f"{family.help.translate(_ESCAPES) or family.name}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        names = family.label_names
        if isinstance(family, HistogramFamily):
            for values, child in family.items():
                assert isinstance(child, Histogram)
                cumulative = child.cumulative()
                for bound, count in zip(family.buckets, cumulative):
                    labels = _label_str(names, values,
                                        f'le="{_fmt(bound)}"')
                    lines.append(f"{family.name}_bucket{labels} {count}")
                labels = _label_str(names, values, 'le="+Inf"')
                lines.append(f"{family.name}_bucket{labels} {cumulative[-1]}")
                plain = _label_str(names, values)
                lines.append(f"{family.name}_sum{plain} {_fmt(child.sum)}")
                lines.append(f"{family.name}_count{plain} {child.total}")
        elif isinstance(family, GaugeFamily):
            for values, child in family.items():
                assert isinstance(child, Gauge)
                lines.append(f"{family.name}{_label_str(names, values)} "
                             f"{_fmt(child.read())}")
        else:
            assert isinstance(family, CounterFamily)
            for values, child in family.items():
                lines.append(f"{family.name}{_label_str(names, values)} "
                             f"{_fmt(child.value)}")  # type: ignore[union-attr]
    return "\n".join(lines) + "\n" if lines else ""


def snapshot(hub: MetricsHub, sim_time: Optional[float] = None) -> Dict[str, object]:
    """The hub as a canonical JSON-ready dict (sorted, deterministic)."""
    families: Dict[str, object] = {}
    for family in hub.families():
        if not family.children:
            continue
        samples: List[Dict[str, object]] = []
        names = family.label_names
        for values, child in family.items():
            labels = {n: v for n, v in zip(names, values)}
            if isinstance(child, Histogram):
                samples.append({
                    "labels": labels,
                    "buckets": {_fmt(b): c for b, c in
                                zip(family.buckets,  # type: ignore[union-attr]
                                    child.cumulative())},
                    "count": child.total,
                    "sum": round(child.sum, 9),
                })
            elif isinstance(child, Gauge):
                samples.append({"labels": labels,
                                "value": round(child.read(), 9)})
            else:
                samples.append({"labels": labels,
                                "value": round(child.value, 9)})  # type: ignore[union-attr]
        families[family.name] = {
            "type": family.kind,
            "help": family.help,
            "label_names": list(names),
            "samples": samples,
        }
    out: Dict[str, object] = {"families": families}
    if sim_time is not None:
        out["sim_time"] = round(sim_time, 9)
    return out


def json_text(hub: MetricsHub, sim_time: Optional[float] = None) -> str:
    """Canonical JSON rendering (sorted keys, trailing newline)."""
    return json.dumps(snapshot(hub, sim_time), indent=2, sort_keys=True) + "\n"


__all__ = ["json_text", "prometheus_text", "snapshot"]
