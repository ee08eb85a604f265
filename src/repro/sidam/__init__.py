"""SIDAM: the paper's motivating traffic-information application."""

from .city import CityModel
from .traffic import StaffReporter, SyntheticTraffic, clamp_level
from .workload import CitizenWorkload, WorkloadStats

__all__ = [
    "CitizenWorkload",
    "CityModel",
    "StaffReporter",
    "SyntheticTraffic",
    "WorkloadStats",
    "clamp_level",
]
