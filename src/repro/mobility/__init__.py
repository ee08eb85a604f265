"""Mobility substrate: cell topologies, mobility models, activity."""

from .activity import ActivityProcess, exponential_durations, fixed_durations
from .cellmap import (
    CellMap,
    complete_topology,
    custom_topology,
    grid_topology,
    line_topology,
    ring_topology,
)
from .driver import MobilityDriver
from .models import (
    ExponentialResidence,
    FixedResidence,
    MobilityModel,
    RandomNeighborWalk,
    ResidenceTime,
    UniformResidence,
)

__all__ = [
    "ActivityProcess",
    "CellMap",
    "ExponentialResidence",
    "FixedResidence",
    "MobilityDriver",
    "MobilityModel",
    "RandomNeighborWalk",
    "ResidenceTime",
    "UniformResidence",
    "complete_topology",
    "custom_topology",
    "exponential_durations",
    "fixed_durations",
    "grid_topology",
    "line_topology",
    "ring_topology",
]
