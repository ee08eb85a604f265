"""Wall-clock access for the live backend — the single source of time.

Everything under ``repro.live`` reads time through a :class:`LiveClock`;
no other live module touches the ``time`` module.  Two reasons:

* **One epoch per cluster.**  The driver samples ``time.monotonic()``
  once, before forking the station processes; every process rebases its
  reads against that shared epoch (``CLOCK_MONOTONIC`` is system-wide on
  Linux), so trace timestamps from all processes live on one axis and a
  merged trace sorts into a causally sensible order without any clock
  negotiation.

* **Auditability.**  Simulator code never reads a wall clock (a read
  would break the byte-identical traces the determinism tests and pins
  check); ``repro/live`` must, and keeping that exception honest means
  wall time must be trivially greppable — it all flows through here.
"""

from __future__ import annotations

import time


class LiveClock:
    """Monotonic wall clock rebased to a cluster-wide epoch.

    ``now()`` returns seconds since the epoch the driver sampled at
    cluster start, so live timestamps look like simulated ones: small
    floats starting near zero.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: float) -> None:
        self.epoch = epoch

    @classmethod
    def start(cls) -> "LiveClock":
        """A clock whose epoch is this very moment (driver-side)."""
        return cls(time.monotonic())

    def now(self) -> float:
        return time.monotonic() - self.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiveClock(epoch={self.epoch!r}, now={self.now():.3f})"
