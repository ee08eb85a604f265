"""Summary statistics used by the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    stddev: float
    minimum: float
    p50: float
    p95: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.4f} sd={self.stddev:.4f} "
                f"min={self.minimum:.4f} p50={self.p50:.4f} "
                f"p95={self.p95:.4f} max={self.maximum:.4f}")


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of range")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    frac = rank - low
    value = ordered[low] * (1 - frac) + ordered[high] * frac
    # Clamp interpolation round-off back into the data range.
    return min(max(value, ordered[0]), ordered[-1])


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty, pre-sorted sample, q in
    [0, 1]: no interpolation, so the result is always a sample value."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=len(values),
        mean=mean(values),
        stddev=stddev(values),
        minimum=min(values),
        p50=percentile(values, 50),
        p95=percentile(values, 95),
        maximum=max(values),
    )


def jain_fairness(values: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly balanced, 1/n = one hot spot.

    Used by the load-balancing experiment (AN5) to compare proxy load
    spread under RDP's dynamic placement vs a static home agent.
    """
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if total == 0 or squares == 0:  # all zero, or denormal underflow
        return 1.0
    return (total * total) / (len(values) * squares)


def imbalance_ratio(values: Sequence[float]) -> float:
    """max/mean load — how hot is the hottest node."""
    if not values:
        return 1.0
    mu = mean(values)
    if mu == 0:
        return 1.0
    return max(values) / mu
