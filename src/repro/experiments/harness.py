"""Shared experiment plumbing.

Helpers used by every experiment module: the workloads several of them
share (a per-host periodic issuer, chained requests), driving a world to
delivery quiescence (repeated inactivity/activation rounds stand in for
the paper's "periods of inactivity and any number of migrations" that
eventually trigger redelivery), and the plain-text table each experiment
builds, with the paper's claims recorded as checks on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union)

from ..errors import ReproError
from ..hosts.api import RdpClient
from ..mobility.activity import ActivityProcess
from ..mobility.models import ExponentialResidence, RandomNeighborWalk
from ..sim import PeriodicProcess
from ..types import MhState
from ..world import World


def settle_active(world: World) -> None:
    """Ensure every joined host ends up active (wakes sleeping ones)."""
    for host in world.hosts.values():
        if host.state is MhState.INACTIVE:
            host.activate()


def outstanding_requests(world: World) -> int:
    """Client requests without a result yet, across the whole world."""
    return sum(len(client.outstanding) for client in world.clients.values())


def random_walk(world: World, name: str, mean_residence: float) -> None:
    """Walk host *name* to random neighbour cells, exponential residence."""
    world.add_mobility(name, RandomNeighborWalk(world.cell_map),
                       ExponentialResidence(mean_residence))


def run_workload(world: World, until: float,
                 processes: Iterable[Union[PeriodicProcess, ActivityProcess]]
                 ) -> None:
    """Run to *until*, then stop the workload and mobility, wake all hosts."""
    world.run(until=until)
    for proc in processes:
        proc.stop()
    for driver in world.drivers:
        driver.stop()
    settle_active(world)


def request_totals(world: World) -> Tuple[int, int]:
    """(requests issued, requests completed) across every client."""
    clients = world.clients.values()
    return (sum(len(c.requests) for c in clients),
            sum(len(c.completed) for c in clients))


def seed_totals(run: Callable[[int], Any], seeds: int,
                fields: Sequence[str]) -> List[int]:
    """Sum the named fields of ``run(seed)`` over ``range(seeds)``."""
    results = [run(seed) for seed in range(seeds)]
    return [sum(getattr(r, name) for r in results) for name in fields]


def start_issuer(world: World, client: RdpClient, rng: random.Random,
                 mean_interarrival: float, until: float, label: str,
                 payload: Callable[[int], Any] = lambda n: n
                 ) -> PeriodicProcess:
    """Issue echo requests from *client* at exponential intervals.

    A request goes out only while the host is active and up to sim time
    *until*; its payload is ``payload(requests issued so far)``.
    """
    def issue() -> None:
        if world.sim.now > until:
            return
        if client.host.state is MhState.ACTIVE:
            client.request("echo", payload(len(client.requests)))
    proc = PeriodicProcess(
        world.sim, issue, lambda: rng.expovariate(1.0 / mean_interarrival),
        label=label)
    proc.start()
    return proc


def request_chain(client: RdpClient, limit: int,
                  before: Optional[Callable[[], None]] = None
                  ) -> Callable[..., None]:
    """A result callback keeping one echo request of *client* in flight.

    Each call (the first one starts the chain) runs *before*, then issues
    the next request unless *limit* have been issued.
    """
    def chain(_payload: Any = None) -> None:
        if before is not None:
            before()
        if len(client.requests) >= limit:
            return
        client.request("echo", len(client.requests), on_result=chain)
    return chain


def start_chains(world: World, n_hosts: int, requests_per_host: int,
                 mean_residence: float) -> None:
    """Random-walking hosts, each chaining *requests_per_host* requests.

    Every result forward races against mobility.  Client retries cover
    reliable *request* sending (QRPC's role in the paper's system,
    Section 4): a request uplinked during a hand-off can be dropped
    before reaching any proxy, which RDP by design does not recover.
    """
    for i in range(n_hosts):
        name = f"mh{i}"
        client = world.add_host(name, world.cells[i % len(world.cells)],
                                retry_interval=5.0)
        random_walk(world, name, mean_residence)
        world.sim.schedule(0.1, request_chain(client, requests_per_host))


def drain(world: World, max_rounds: int = 60, round_window: float = 30.0) -> int:
    """Run to quiescence, nudging redelivery until every request completes.

    Under lossy wireless an Ack can vanish after the last migration, in
    which case the proxy (faithfully to the paper) waits for the next
    ``update_currentloc``.  Each drain round toggles every host through a
    deactivate/activate cycle — a reactivation greet — which triggers the
    re-send.  Rounds advance in bounded time slices (client retry timers
    keep the event queue alive while anything is outstanding, so "run
    until idle" cannot be the loop condition).  Returns the number of
    rounds used.

    Raises :class:`ReproError` when requests remain after ``max_rounds``
    (which would indicate a protocol bug, not bad luck: each round
    retransmits every unacknowledged result).
    """
    for driver in world.drivers:
        driver.stop()
    settle_active(world)
    world.sim.run(until=world.sim.now + round_window)
    rounds = 0
    while outstanding_requests(world) > 0:
        rounds += 1
        if rounds > max_rounds:
            raise ReproError(
                f"{outstanding_requests(world)} requests still outstanding "
                f"after {max_rounds} drain rounds")
        for host in world.hosts.values():
            if host.state is MhState.ACTIVE:
                host.deactivate()
        world.sim.run(until=world.sim.now + round_window)
        settle_active(world)
        world.sim.run(until=world.sim.now + round_window)
    world.sim.run_until_idle()  # retries are gone; flush the tail
    return rounds


class Check(NamedTuple):
    """One paper claim, stated over an experiment's own output."""

    statement: str
    holds: bool


@dataclass
class Table:
    """A printable experiment table (one per paper artifact)."""

    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    charts: List[str] = field(default_factory=list)
    checks: List[Check] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns")
        self.rows.append(values)

    def check(self, statement: str, holds: bool) -> None:
        """Record whether a claim holds; never raises and never renders
        (``run`` and ``report`` exit 1 on a false one)."""
        self.checks.append(Check(statement, bool(holds)))

    def render(self) -> str:
        header = [str(c) for c in self.columns]
        body = [[f"{v:.4g}" if isinstance(v, float) else str(v) for v in row]
                for row in self.rows]
        widths = [max(map(len, column)) for column in zip(header, *body)]

        def line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths))
        lines = [self.title, "=" * len(self.title), line(header),
                 line(["-" * w for w in widths]), *map(line, body),
                 *(f"note: {note}" for note in self.notes)]
        return "\n\n".join(["\n".join(lines), *self.charts])
