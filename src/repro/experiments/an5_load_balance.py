"""AN5 — dynamic proxy placement vs a static home agent.

Paper claim (Sections 1, 4, 5): "The main advantage of our protocol is
that the location of the proxy used to forward messages to a mobile host
is not static (as in Mobile IP), by which it facilitates dynamic global
load balancing within the set of Mobile Support Stations."

Experiment: a population of mobile hosts all *starts* in one corner of a
grid city (their Mobile-IP home) and then disperses by random walk while
issuing a steady stream of requests.  Three placement policies run the
same workload:

* ``home``         — Mobile-IP-style: every rendezvous point stays at the
  (shared) home MSS, which becomes a hot spot;
* ``current``      — the paper's rule: proxies are created wherever the MH
  currently is, so rendezvous load follows the population;
* ``least_loaded`` — the extension exploiting dynamic placement fully.

Reported per policy: proxy-hosting distribution across MSSs, per-MSS
message load, Jain's fairness index and the max/mean imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..analysis.charts import hbar_chart
from ..analysis.stats import imbalance_ratio, jain_fairness
from ..baselines.mobile_ip import mobile_ip_config
from ..config import LatencySpec, WorldConfig
from ..net.latency import ExponentialLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import (
    Table, drain, random_walk, request_totals, run_workload, start_issuer)

POLICIES = ("home", "current", "least_loaded")


@dataclass
class LoadBalanceResult:
    """One policy's load distribution."""

    policy: str
    requests: int
    per_mss_load: Dict[str, int]
    per_mss_proxies: Dict[str, int]
    fairness: float
    imbalance: float
    hottest_share: float


def run_policy(
    policy: str,
    n_hosts: int = 24,
    grid: int = 4,
    duration: float = 240.0,
    mean_residence: float = 10.0,
    mean_interarrival: float = 6.0,
    seed: int = 0,
) -> LoadBalanceResult:
    config = WorldConfig(
        seed=seed,
        topology="grid",
        grid_width=grid,
        grid_height=grid,
        placement=policy,
        wired_latency=LatencySpec(kind="exponential", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
        trace=False,
    )
    world = World(mobile_ip_config(config) if policy == "home" else config)
    world.add_server("echo", EchoServer,
                     service_time=ExponentialLatency(scale=0.5, floor=0.1))
    home_cell = world.cells[0]

    processes = []
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, home_cell, retry_interval=5.0)
        random_walk(world, name, mean_residence)
        processes.append(start_issuer(
            world, client, world.rng.stream(f"workload.{name}"),
            mean_interarrival, duration * 0.9, "an5:issue",
            payload=lambda n: {"n": n}))

    run_workload(world, duration, processes)
    # Home placement's permanent rendezvous points never retire; the
    # drain only settles deliveries.
    drain(world)

    station_ids = world.station_ids()
    load = {node: world.metrics.node_count(node, "mss_messages_processed")
            for node in station_ids}
    proxies = {node: world.metrics.node_count(node, "proxies_created")
               for node in station_ids}
    loads = list(load.values())
    total = sum(loads) or 1
    return LoadBalanceResult(
        policy=policy,
        requests=request_totals(world)[0],
        per_mss_load=load,
        per_mss_proxies=proxies,
        fairness=jain_fairness(loads),
        imbalance=imbalance_ratio(loads),
        hottest_share=max(loads) / total,
    )


def run_an5(seed: int = 0, **kwargs) -> Table:
    table = Table(
        title="AN5: MSS load distribution by proxy placement policy",
        columns=["policy", "requests", "Jain fairness", "max/mean load",
                 "hottest MSS share", "proxies at hottest"],
    )
    results = {policy: run_policy(policy, seed=seed, **kwargs)
               for policy in POLICIES}
    for result in results.values():
        hottest = max(result.per_mss_load, key=result.per_mss_load.get)
        table.add_row(result.policy, result.requests, result.fairness,
                      result.imbalance, result.hottest_share,
                      result.per_mss_proxies.get(hottest, 0))
    table.notes.append(
        "paper: static home agents concentrate load; RDP's dynamic proxy "
        "placement spreads it")
    table.charts.append(hbar_chart({row[0]: row[4] for row in table.rows},
                                   title="hottest-MSS share of total load"))
    home, current, least = (results[policy] for policy in POLICIES)
    table.check("current is fairer than home", current.fairness > home.fairness)
    table.check("least_loaded is as fair as current",
                least.fairness >= current.fairness)
    table.check("home's hottest MSS carries > 3x a fair share",
                home.hottest_share > 3 / len(home.per_mss_load))
    return table
