"""Canonical trace serialization for determinism checks.

Every id in a trace row is drawn from the world's own
:class:`~repro.engine.Ids`, so two runs of the same seed produce equal
rows however many runs came before them in the process.  Serializing
them as one stable text line each (fields in sorted order) makes that
byte-identical comparison direct: two runs are equivalent iff their
canonical lines are equal.
"""

from __future__ import annotations

from typing import Iterable, List

from ..sim.tracing import TraceRecord


def canonical_lines(records: Iterable[TraceRecord]) -> List[str]:
    """One stable text line per record, fields sorted by name."""
    return [" ".join([f"{rec.time:.6f}", rec.kind, rec.node,
                      *(f"{key}={rec.fields[key]}"
                        for key in sorted(rec.fields))])
            for rec in records]
