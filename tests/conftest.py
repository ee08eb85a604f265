"""Shared fixtures for the test suite."""

from __future__ import annotations

from typing import Any, List, Optional

import pytest

from repro import World, WorldConfig
from repro.config import LatencySpec
from repro.sim import Simulator, TraceRecorder
from repro.sim.tracing import TraceRecord


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


def make_world(**overrides) -> World:
    """A small deterministic world: 3 cells in a line, constant latencies."""
    defaults = dict(
        n_cells=3,
        topology="line",
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
    )
    defaults.update(overrides)
    return World(WorldConfig(**defaults))


def trace_filter(recorder: TraceRecorder, kind: Optional[str] = None,
                 node: Optional[str] = None, **fields: Any) -> List[TraceRecord]:
    """Views of *recorder*'s kept rows that match every given criterion."""
    return [TraceRecord(*row) for row in recorder.rows()
            if (kind is None or row[1] == kind)
            and (node is None or row[2] == node)
            and all(row[3].get(k) == v for k, v in fields.items())]


@pytest.fixture
def world() -> World:
    return make_world()
