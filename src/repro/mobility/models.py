"""Mobility models.

A mobility model answers two questions for a mobile host:

* how long does it stay in the current cell (*residence time*), and
* which cell does it migrate to next.

The residence-time distribution is the lever of experiment AN3: the paper
predicts result retransmissions only when the mean residence time drops
below ``t_wired + t_wireless``.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Optional

from ..errors import MobilityError
from ..types import CellId
from .cellmap import CellMap


class ResidenceTime(ABC):
    """Distribution of the time spent in one cell."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float: ...


class ExponentialResidence(ResidenceTime):
    """Exponential residence time (memoryless cell dwell)."""

    def __init__(self, mean: float) -> None:
        if mean <= 0:
            raise MobilityError(f"mean residence must be positive, got {mean}")
        self._mean = mean

    def sample(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self._mean)


class MobilityModel(ABC):
    """Chooses the next cell for a migrating host."""

    @abstractmethod
    def next_cell(self, current: CellId, rng: random.Random) -> Optional[CellId]:
        """The target cell, or None to stay put this round."""


class RandomNeighborWalk(MobilityModel):
    """Uniform random walk over cell-map edges (the paper's 'random
    communication between processes' mobility substitute)."""

    def __init__(self, cell_map: CellMap) -> None:
        self.cell_map = cell_map

    def next_cell(self, current: CellId, rng: random.Random) -> Optional[CellId]:
        neighbors = self.cell_map.neighbors(current)
        if not neighbors:
            return None
        return rng.choice(neighbors)
