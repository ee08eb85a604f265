"""Latency models for the wired and wireless substrates.

Each model exposes ``sample(rng)``, one transmission delay.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from ..errors import ConfigError


class LatencyModel(ABC):
    """A distribution of per-message transmission delays."""

    @abstractmethod
    def sample(self, rng: random.Random) -> float:
        """Draw one delay."""


class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay``."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ConfigError(f"negative latency {delay!r}")
        self.delay = delay

    def sample(self, rng: random.Random) -> float:
        return self.delay

    def __repr__(self) -> str:
        return f"ConstantLatency({self.delay})"


class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        if low < 0 or high < low:
            raise ConfigError(f"invalid uniform range [{low}, {high}]")
        self.low = low
        self.high = high

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def __repr__(self) -> str:
        return f"UniformLatency({self.low}, {self.high})"


class ExponentialLatency(LatencyModel):
    """Exponentially distributed delays on top of a fixed floor.

    ``floor`` models propagation delay; the exponential part models
    queueing.  Mean is ``floor + scale``.
    """

    def __init__(self, scale: float, floor: float = 0.0) -> None:
        if scale < 0 or floor < 0:
            raise ConfigError(f"invalid exponential latency ({scale}, {floor})")
        self.scale = scale
        self.floor = floor

    def sample(self, rng: random.Random) -> float:
        if self.scale == 0:
            return self.floor
        return self.floor + rng.expovariate(1.0 / self.scale)

    def __repr__(self) -> str:
        return f"ExponentialLatency(scale={self.scale}, floor={self.floor})"
