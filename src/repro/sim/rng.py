"""Named, reproducible random-number streams.

Every source of randomness in a simulated world (mobility, latency,
wireless loss, workload) draws from its own named substream derived from a
single root seed.  Adding a new consumer of randomness therefore never
perturbs the draws seen by existing consumers, which keeps experiment
sweeps comparable across code changes.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(root_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{root_seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent :class:`random.Random` substreams.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.stream("mobility")
    >>> b = streams.stream("latency.wired")
    >>> a is streams.stream("mobility")
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the substream for *name*, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(_derive_seed(self.seed, name))
        return self._streams[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
