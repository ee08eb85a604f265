"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

import pytest

from repro import World, WorldConfig
from repro.config import LatencySpec
from repro.mobility.models import ResidenceTime
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


class FixedResidence(ResidenceTime):
    """Stay exactly *duration* in every cell: mobility on a fixed clock."""

    def __init__(self, duration: float) -> None:
        self.duration = duration

    def sample(self, rng: random.Random) -> float:
        return self.duration


def per_kind(monitor: Any, direction: str,
             network: Optional[str] = None) -> Dict[str, int]:
    """Per-kind totals of a monitor's ``rdp_net_messages_<direction>_total``
    family (``sent``/``received``), on one network or summed over all."""
    out: Dict[str, int] = {}
    family = monitor.hub.get(f"rdp_net_messages_{direction}_total")
    for (net, kind), child in family.items():
        if network in (None, net):
            out[kind] = out.get(kind, 0) + int(child.value)
    return out


def receiver_ranges(link: Any) -> int:
    """SACK ranges a reliable link holds across its receive channels: the
    receiver's memory bound."""
    return sum(len(ranges.ranges()) for ranges in link._recv.values())


def proxies_of(world: World, host_name: str) -> List[Any]:
    """Every live proxy, at any station, of the named host."""
    mh = world.hosts[host_name].node_id
    return [proxy for station in world.stations.values()
            for proxy in station.proxies.values() if proxy.mh == mh]
