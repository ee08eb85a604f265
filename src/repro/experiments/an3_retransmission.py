"""AN3 — the retransmission threshold.

Paper claim (Section 5): "If the wireless communication is reliable,
retransmissions of the result with RDP occur only if the mean time period
a MH spends in a cell is less than t_wired + t_wireless ... unlikely for
current systems where the diameter of the cells is of reasonable size."

A result forward is lost when the MH leaves the cell inside the window
between the proxy's send and the wireless delivery — roughly
``W = t_wired + t_wireless``.  With exponential residence (mean ``T``)
the per-forward miss probability is ``1 - exp(-W/T)``, which vanishes as
``T`` grows past ``W``: the knee the paper describes.

The experiment sweeps ``T`` across the threshold and measures the
retransmission rate (proxy retransmissions per result delivered),
comparing it with the analytical miss probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.charts import curve
from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table, drain, request_totals, start_chains

T_WIRED = 0.050
T_WIRELESS = 0.025
THRESHOLD = T_WIRED + T_WIRELESS


@dataclass
class ThresholdPoint:
    """One residence-time setting's measurement."""

    mean_residence: float
    requests: int
    delivered: int
    retransmissions: int

    @property
    def retransmission_rate(self) -> float:
        return self.retransmissions / self.delivered if self.delivered else 0.0

    @property
    def predicted_miss_probability(self) -> float:
        return 1.0 - math.exp(-THRESHOLD / self.mean_residence)


def run_point(
    mean_residence: float,
    n_hosts: int = 4,
    requests_per_host: int = 30,
    seed: int = 0,
) -> ThresholdPoint:
    """Measure the retransmission rate for one mean residence time."""
    config = WorldConfig(
        seed=seed,
        n_cells=8,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=T_WIRED),
        wireless_latency=LatencySpec(kind="constant", mean=T_WIRELESS),
        trace=False,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.2))
    start_chains(world, n_hosts, requests_per_host, mean_residence)
    world.run(until=mean_residence * requests_per_host * 50 + 1000)
    drain(world)

    requests, delivered = request_totals(world)
    return ThresholdPoint(
        mean_residence=mean_residence,
        requests=requests,
        delivered=delivered,
        retransmissions=world.metrics.count("proxy_retransmissions"),
    )


def default_residences() -> List[float]:
    """Sweep from well below to well above the threshold."""
    return [round(THRESHOLD * f, 5)
            for f in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 20.0, 60.0)]


def run_an3(residences: Optional[List[float]] = None, seed: int = 0,
            **kwargs) -> Table:
    residences = residences or default_residences()
    table = Table(
        title=(f"AN3: retransmission rate vs mean cell residence "
               f"(threshold t_wired + t_wireless = {THRESHOLD:.3f}s)"),
        columns=["mean residence (s)", "residence/threshold", "requests",
                 "retransmissions", "rate", "predicted miss prob"],
    )
    rates = []
    for mean_residence in residences:
        point = run_point(mean_residence, seed=seed, **kwargs)
        rates.append(point.retransmission_rate)
        table.add_row(
            point.mean_residence,
            point.mean_residence / THRESHOLD,
            point.requests,
            point.retransmissions,
            point.retransmission_rate,
            point.predicted_miss_probability,
        )
    table.notes.append(
        "paper: retransmissions only when residence < t_wired + t_wireless")
    table.charts.append(curve(
        [(row[0], row[4]) for row in table.rows], log_x=True,
        title="retransmission rate vs residence (log x)"))
    table.check("rate > 5 at the shortest residence", rates[0] > 5.0)
    table.check("rate < 0.2 at the longest residence", rates[-1] < 0.2)
    table.check("rate falls > 20-fold across the sweep", rates[0] > rates[-1] * 20)
    return table
