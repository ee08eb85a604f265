"""Mobility substrate: cell topologies, mobility models, activity."""

from .activity import ActivityProcess
from .cellmap import (
    CellMap,
    complete_topology,
    grid_topology,
    line_topology,
    ring_topology,
)
from .driver import MobilityDriver
from .models import (
    ExponentialResidence,
    MobilityModel,
    RandomNeighborWalk,
    ResidenceTime,
)

__all__ = [
    "ActivityProcess",
    "CellMap",
    "ExponentialResidence",
    "MobilityDriver",
    "MobilityModel",
    "RandomNeighborWalk",
    "ResidenceTime",
    "complete_topology",
    "grid_topology",
    "line_topology",
    "ring_topology",
]
