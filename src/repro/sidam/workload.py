"""Citizen workloads: query and subscription generators.

Citizens are mobile hosts that ask the traffic service about regions —
mostly the one they are in (locality), sometimes anywhere in the city —
and optionally hold threshold subscriptions on their home region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..hosts.api import PendingRequest, RdpClient
from ..sim import PeriodicProcess, Simulator
from ..types import MhState
from .city import CityModel


@dataclass
class WorkloadStats:
    """What one citizen workload produced."""

    issued: int = 0
    requests: List[PendingRequest] = field(default_factory=list)

    def latencies(self) -> List[float]:
        return [r.latency for r in self.requests if r.latency is not None]


class CitizenWorkload:
    """Exponential-arrival queries from one mobile citizen."""

    def __init__(
        self,
        sim: Simulator,
        client: RdpClient,
        city: CityModel,
        rng: random.Random,
        service: str = "tis",
        mean_interarrival: float = 8.0,
        locality: float = 0.7,
        max_requests: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.client = client
        self.city = city
        self.rng = rng
        self.service = service
        self.locality = locality
        self.max_requests = max_requests
        self.stats = WorkloadStats()
        self._process = PeriodicProcess(
            sim, self._issue,
            lambda: rng.expovariate(1.0 / mean_interarrival),
            label="workload:citizen")

    def start(self) -> None:
        self._process.start()

    def stop(self) -> None:
        self._process.stop()

    def _issue(self) -> None:
        host = self.client.host
        if host.state is not MhState.ACTIVE or host.current_cell is None:
            return
        if (self.max_requests is not None
                and self.stats.issued >= self.max_requests):
            self._process.stop()
            return
        region = self.city.pick_region(self.rng, host.current_cell,
                                       locality=self.locality)
        pending = self.client.request(self.service,
                                      {"op": "query", "region": region})
        self.stats.issued += 1
        self.stats.requests.append(pending)
