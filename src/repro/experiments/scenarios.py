"""Scenario reproductions of the paper's figures.

* :func:`run_fig1` — Figure 1: three MSSs, five MHs, a request answered
  in a different cell than it was issued from, and a multicast to the
  group {Mh1, Mh4, Mh5}.
* :func:`run_fig3` — Figure 3: a single request whose result chases the
  MH through two migrations (one missed forward, one retransmission).
* :func:`run_fig4` — Figure 4: three overlapping requests exercising the
  RKpR reset, the special del-pref-only message, and the final
  del-proxy.

All three use constant latencies and a :class:`ManualServer` (for 3/4) so
the interleavings are exactly the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..analysis.sequence import (
    ChartEntry, extract_chart, kinds_in_order, render_chart,
    subsequence_present)
from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer, ManualServer
from ..servers.multicast import GroupServer
from ..types import RequestId
from ..world import World
from .harness import Check

WIRED = 0.010
WIRELESS = 0.005


def _scenario_config(n_cells: int, topology: str = "line",
                     ack_delay: float = 0.0) -> WorldConfig:
    return WorldConfig(
        n_cells=n_cells,
        topology=topology,
        wired_latency=LatencySpec(kind="constant", mean=WIRED),
        wireless_latency=LatencySpec(kind="constant", mean=WIRELESS),
        ack_delay=ack_delay,
    )


@dataclass
class ScenarioResult:
    """Outcome of one scripted scenario."""

    world: World
    title: str = ""
    chart: List[ChartEntry] = field(default_factory=list)
    request_ids: Dict[str, RequestId] = field(default_factory=dict)
    facts: Dict[str, object] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    def kinds(self) -> List[str]:
        return kinds_in_order(self.chart)

    def render(self) -> str:
        """The message chart under the title; Figure 1, which has no
        chart, lists its facts."""
        if self.chart:
            return render_chart(self.chart, title=self.title)
        return "\n".join([self.title, "=" * 48] + [
            f"{key}: {value}" for key, value in self.facts.items()])


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

def run_fig1() -> ScenarioResult:
    """Three cells, five mobile hosts, one roaming query, one multicast."""
    world = World(_scenario_config(n_cells=3, topology="complete"))
    server = world.add_server("S", EchoServer, service_time=ConstantLatency(1.0))
    group = world.add_server("groups", GroupServer)

    cells = world.cells
    placements = {"mh1": cells[0], "mh2": cells[0], "mh3": cells[1],
                  "mh4": cells[2], "mh5": cells[1]}
    clients = {name: world.add_host(name, cell)
               for name, cell in placements.items()}

    # Mh1, Mh4, Mh5 form the multicast group of the figure.
    memberships = {}
    def join_groups() -> None:
        for name in ("mh1", "mh4", "mh5"):
            memberships[name] = clients[name].subscribe("groups", {"group": "g"})
    world.sim.schedule(0.1, join_groups)

    # Mh1 queries S from cell0 but will read the answer in cell2.
    issued = {}
    world.sim.schedule(0.5, lambda: issued.setdefault(
        "query", clients["mh1"].request("S", {"ask": "traffic"})))
    world.sim.schedule(0.9, lambda: world.hosts["mh1"].migrate_to(cells[2]))
    # Mh3 wanders (the figure's migrating host).
    world.sim.schedule(1.0, lambda: world.hosts["mh3"].migrate_to(cells[0]))
    # Mh5 multicasts to the group, like mcast(1,4,5) in the figure.
    world.sim.schedule(1.2, lambda: issued.setdefault(
        "mcast", clients["mh5"].request(
            "groups", {"op": "mcast", "group": "g", "data": "hello"})))

    world.run(until=10.0)
    # Close the memberships so proxies can retire, then drain.
    for name, sub in memberships.items():
        clients[name].request("groups", {"op": "leave", "group": "g",
                                         "member": str(sub.request_id)})
    world.run_until_idle()
    # A proxy may linger when its del-pref notice loses the race against
    # the final Ack (the paper's "del-proxy = false" branch at the end of
    # Section 3.4) — the pref is kept and the proxy is reused.  One more
    # single-request round per host retires them cleanly.
    flush = [client.request("S", "flush") for client in clients.values()]
    world.run_until_idle()
    assert all(p.done for p in flush)

    result = ScenarioResult(
        world=world, title="FIG1: 3 MSSs, 5 MHs, roaming query + mcast(1,4,5)")
    result.request_ids = {k: p.request_id for k, p in issued.items()}
    result.facts = {
        "query_done": issued["query"].done,
        "query_result": issued["query"].results[:1],
        "mcast_done": issued["mcast"].done,
        "mcast_receivers": sorted(
            name for name in ("mh1", "mh4", "mh5")
            if any(isinstance(n, dict) and n.get("data") == "hello"
                   for n in memberships[name].notifications)),
        "mh1_final_cell": world.hosts["mh1"].current_cell,
        "live_proxies": world.live_proxy_count(),
    }
    facts = result.facts
    result.checks = [
        Check("the roaming query completes", bool(facts["query_done"])),
        Check("mcast reaches mh1, mh4, mh5",
              facts["mcast_receivers"] == ["mh1", "mh4", "mh5"]),
        Check("no proxy outlives the run", facts["live_proxies"] == 0),
    ]
    return result


# ---------------------------------------------------------------------------
# Figure 3
# ---------------------------------------------------------------------------

FIG3_EXPECTED_KINDS = [
    "request",            # Mh -> Mssp
    "server_request",     # proxy -> server
    "greet",              # Mh -> Msso
    "dereg",              # Msso -> Mssp
    "deregack",           # Mssp -> Msso (pref rides along)
    "update_currentloc",  # Msso -> proxy
    "server_result",      # server -> proxy
    "result_forward",     # proxy -> Msso (del-pref)
    "wireless_result",    # Msso -> Mh ... missed: Mh already left
    "greet",              # Mh -> Mssn
    "dereg",              # Mssn -> Msso
    "deregack",           # Msso -> Mssn
    "update_currentloc",  # Mssn -> proxy
    "result_forward",     # proxy -> Mssn (retransmission, del-pref)
    "wireless_result",    # Mssn -> Mh (delivered)
    "ack",                # Mh -> Mssn
    "ack_forward",        # Mssn -> proxy (del-proxy) => proxy deleted
]


def run_fig3() -> ScenarioResult:
    """Single request, two migrations, one missed forward (Figure 3)."""
    world = World(_scenario_config(n_cells=3))
    server = world.add_server("S", ManualServer)
    client = world.add_host("mh", world.cells[0])
    host = world.hosts["mh"]
    issued: Dict[str, object] = {}

    world.sim.schedule(0.100, lambda: issued.setdefault(
        "req", client.request("S", "question")))
    world.sim.schedule(0.500, host.migrate_to, world.cells[1])
    # Release the result; it reaches the proxy at ~1.010, is forwarded to
    # Msso (~1.020) and would hit the MH at ~1.025 — but the MH migrates
    # at 1.022, so the forward is lost and the proxy must retransmit.
    world.sim.schedule(1.000, lambda: server.release_next("answer"))
    world.sim.schedule(1.022, host.migrate_to, world.cells[2])
    world.run_until_idle()

    pending = issued["req"]
    chart = extract_chart(world.recorder, kinds=set(FIG3_EXPECTED_KINDS))
    result = ScenarioResult(world=world, chart=chart,
                            title="FIG3: single request, two migrations",
                            request_ids={"req": pending.request_id})
    result.facts = {
        "done": pending.done,
        "result": pending.results[:1],
        "retransmissions": world.metrics.count("proxy_retransmissions"),
        "missed_forwards": world.monitor.drops("not_in_cell"),
        "duplicates_at_mh": host.duplicate_deliveries,
        "live_proxies": world.live_proxy_count(),
        "proxies_created": world.metrics.count("proxies_created"),
    }
    result.checks = [
        Check("Figure 3's message sequence occurs",
              subsequence_present(result.kinds(), FIG3_EXPECTED_KINDS)),
        Check("one retransmission", result.facts["retransmissions"] == 1),
        Check("no proxy outlives the run", result.facts["live_proxies"] == 0),
    ]
    return result


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------

FIG4_EXPECTED_KINDS = [
    "request",            # requestA at Mssp
    "server_request",
    "greet",              # migrate to Mss
    "dereg", "deregack", "update_currentloc",
    "server_result",      # resultA
    "result_forward",     # resultA del-pref (only A pending) -> RKpR true
    "wireless_result",    # resultA to Mh
    "request",            # requestB before AckA -> RKpR false
    "server_request",     # B to server
    "ack",                # AckA
    "ack_forward",        # AckA, del-proxy false
    "request",            # requestC
    "server_request",
    "server_result",      # resultB
    "result_forward",     # resultB, no del-pref ({B, C} pending)
    "wireless_result",
    "server_result",      # resultC
    "result_forward",     # resultC, no del-pref yet
    "wireless_result",
    "ack",                # AckB -> only C pending, result already sent
    "ack_forward",
    "del_pref_notice",    # the special message of Figure 4
    "ack",                # AckC
    "ack_forward",        # del-proxy true => proxy deleted
]


def run_fig4() -> ScenarioResult:
    """Three overlapping requests with the paper's interleaving (Figure 4)."""
    world = World(_scenario_config(n_cells=2, ack_delay=0.050))
    server = world.add_server("S", ManualServer)
    client = world.add_host("mh", world.cells[0])
    host = world.hosts["mh"]
    issued: Dict[str, object] = {}

    world.sim.schedule(0.100, lambda: issued.setdefault(
        "A", client.request("S", "A")))
    world.sim.schedule(0.300, host.migrate_to, world.cells[1])
    world.sim.schedule(0.500, lambda: server.release_next("resultA"))
    # requestB is issued after resultA arrives (0.525) but before AckA
    # leaves (0.575): the respMss resets RKpR.
    world.sim.schedule(0.550, lambda: issued.setdefault(
        "B", client.request("S", "B")))
    world.sim.schedule(0.700, lambda: issued.setdefault(
        "C", client.request("S", "C")))
    world.sim.schedule(0.800, lambda: server.release(issued["B"].request_id,
                                                     "resultB"))
    world.sim.schedule(0.830, lambda: server.release(issued["C"].request_id,
                                                     "resultC"))
    world.run_until_idle()

    chart = extract_chart(world.recorder, kinds=set(FIG4_EXPECTED_KINDS))
    result = ScenarioResult(
        world=world, chart=chart,
        title="FIG4: multiple requests, RKpR machinery",
        request_ids={k: p.request_id for k, p in issued.items()})
    result.facts = {
        "all_done": all(p.done for p in issued.values()),
        "del_pref_notices": world.metrics.count("proxy_del_pref_notices"),
        "proxies_created": world.metrics.count("proxies_created"),
        "proxies_deleted": world.metrics.count("proxies_deleted"),
        "live_proxies": world.live_proxy_count(),
        "duplicates_at_mh": host.duplicate_deliveries,
    }
    result.checks = [
        Check("Figure 4's message sequence occurs",
              subsequence_present(result.kinds(), FIG4_EXPECTED_KINDS)),
        Check("one del-pref notice", result.facts["del_pref_notices"] == 1),
        Check("no proxy outlives the run", result.facts["live_proxies"] == 0),
    ]
    return result
