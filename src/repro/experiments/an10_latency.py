"""AN10 (extension) — delivery latency vs mobility rate.

Not a claim the paper quantifies, but the natural next figure: how much
does mobility cost the *delivery* segment of a request's latency?  The
proxy's store-and-chase design means a result that misses its MH pays
one location-update round per miss; as residence time shrinks, the
delivery segment grows while admission and service stay flat.

The experiment sweeps mean cell-residence time and reports the latency
decomposition of each request's delivery span
(:meth:`repro.obs.spans.DeliverySpan.segments`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.stats import mean, percentile
from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..obs.spans import SpanBuilder
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table, drain, start_chains


@dataclass
class LatencyPoint:
    mean_residence: float
    # (admission, service, delivery) of every complete request
    segments: List[Tuple[float, float, float]]
    retransmissions: int


def run_latency_point(
    mean_residence: float,
    n_hosts: int = 4,
    requests_per_host: int = 20,
    service_time: float = 0.5,
    seed: int = 0,
) -> LatencyPoint:
    config = WorldConfig(
        seed=seed,
        n_cells=6,
        topology="ring",
        wired_latency=LatencySpec(kind="constant", mean=0.020),
        wireless_latency=LatencySpec(kind="constant", mean=0.010),
        trace=True,  # spans need the trace
    )
    world = World(config)
    world.add_server("echo", EchoServer,
                     service_time=ConstantLatency(service_time))
    start_chains(world, n_hosts, requests_per_host, mean_residence)
    world.run(until=max(600.0, mean_residence * requests_per_host * 10))
    drain(world)
    spans = SpanBuilder.from_records(world.recorder).spans
    return LatencyPoint(
        mean_residence=mean_residence,
        segments=[span.segments() for span in spans if span.complete],
        retransmissions=world.metrics.count("proxy_retransmissions"),
    )


def run_an10(residences: Optional[List[float]] = None, seed: int = 0,
             **kwargs) -> Table:
    residences = residences or [0.2, 0.5, 1.0, 3.0, 10.0, 30.0]
    table = Table(
        title="AN10 (extension): latency decomposition vs mean cell residence",
        columns=["mean residence (s)", "requests", "admission mean (s)",
                 "service mean (s)", "delivery mean (s)", "delivery p95 (s)",
                 "retransmissions"],
    )
    for mean_residence in residences:
        point = run_latency_point(mean_residence, seed=seed, **kwargs)
        admission, service, delivery = (
            [segments[i] for segments in point.segments] for i in range(3))
        table.add_row(mean_residence, len(point.segments), mean(admission),
                      mean(service), mean(delivery), percentile(delivery, 95),
                      point.retransmissions)
    table.notes.append(
        "admission and service stay flat; the delivery segment absorbs "
        "the mobility cost (one update round per missed forward)")
    count, service, delivery = (
        [row[i] for row in table.rows] for i in (1, 3, 4))
    table.check("every residence completes as many requests",
                len(set(count)) == 1)
    table.check("mean service varies < 0.05 s", max(service) - min(service) < 0.05)
    table.check("delivery is slower at the shortest residence than at the "
                "longest", delivery[0] > delivery[-1])
    return table
