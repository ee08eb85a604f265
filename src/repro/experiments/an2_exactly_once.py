"""AN2 — exactly-once delivery and the Ack-vs-hand-off race.

Paper claim (Section 5): "If the MH already sent an Ack to its respMss
and if wired communication guarantees delivery of messages in causal
order, then the protocol ensures delivery of messages with exactly-once
semantics", because the causal chain

    send(Ack)@Msso  ->  send(Ack del-proxy)@Msso  ->  send(update_currl)@Mssn

makes the proxy see the Ack before the location update that would
otherwise trigger a retransmission.

Experiment: one MH receives a result and migrates ``offset`` seconds
afterwards, for a grid of offsets around the Ack's flight time.  For each
offset we record whether the result was transmitted more than once and
whether the application ever saw a duplicate.  The expected shape:

* offsets where the Ack reaches the old MSS *before* it serves the dereg
  -> exactly one transmission (the causal chain holds);
* very small offsets (the MH migrates while its Ack is still in the air,
  so the old MSS has already handed the MH over and must ignore the Ack,
  Section 3.1) -> one retransmission, i.e. at-least-once;
* in every case the application delivers exactly once (assumption 5:
  duplicate detection at the MH).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..config import LatencySpec, WorldConfig
from ..net.latency import ConstantLatency
from ..servers.echo import EchoServer
from ..world import World
from .harness import Table

WIRED = 0.010
WIRELESS = 0.005


@dataclass
class RaceOutcome:
    """One offset's result."""

    offset: float
    transmissions: int
    app_deliveries: int
    ack_ignored: int
    retransmissions: int

    @property
    def exactly_once_transmission(self) -> bool:
        return self.transmissions == 1

    @property
    def exactly_once_delivery(self) -> bool:
        return self.app_deliveries == 1


def run_race(offset: float, seed: int = 0,
             ack_delay: float = 0.008) -> RaceOutcome:
    """One ack-then-migrate race with the given migration offset.

    ``ack_delay`` models the MH taking a moment to acknowledge (processing
    time).  Migrating before the Ack leaves the MH drops it — the paper's
    "becomes inactive right after reception ... but does not send an Ack"
    case — and forces a retransmission; migrating after it leaves keeps
    the exactly-once chain intact.
    """
    config = WorldConfig(
        seed=seed,
        n_cells=2,
        wired_latency=LatencySpec(kind="constant", mean=WIRED),
        wireless_latency=LatencySpec(kind="constant", mean=WIRELESS),
        ack_delay=ack_delay,
    )
    world = World(config)
    world.add_server("echo", EchoServer, service_time=ConstantLatency(0.3))
    client = world.add_host("mh", world.cells[0])
    host = world.hosts["mh"]

    def on_result(_payload) -> None:
        world.sim.schedule(offset, host.migrate_to, world.cells[1])

    world.sim.schedule(0.1, lambda: client.request("echo", "x",
                                                   on_result=on_result))
    world.run_until_idle()

    transmissions = world.monitor.count("wireless_result")
    return RaceOutcome(
        offset=offset,
        transmissions=transmissions,
        # What passes the MH's duplicate detection (assumption 5); the
        # client's callback fires once per request whatever reaches it.
        app_deliveries=len(host.deliveries),
        ack_ignored=world.metrics.count("acks_ignored_after_dereg"),
        retransmissions=world.metrics.count("proxy_retransmissions"),
    )


def run_an2(offsets: List[float] | None = None, seed: int = 0) -> Table:
    """Sweep migration offsets around the Ack flight time."""
    if offsets is None:
        # The Ack needs one wireless hop (5 ms) to reach the old MSS; the
        # competing dereg needs greet (5 ms) + dereg (10 ms) after the
        # migration.  Offsets straddle both regimes.
        offsets = [0.0, 0.001, 0.002, 0.004, 0.006, 0.010, 0.020, 0.050]
    table = Table(
        title="AN2: exactly-once under the ack-then-migrate race",
        columns=["migrate offset (s)", "transmissions", "app deliveries",
                 "acks ignored", "retransmissions", "exactly-once tx"],
    )
    outcomes = [run_race(offset, seed=seed) for offset in offsets]
    for out in outcomes:
        table.add_row(out.offset, out.transmissions, out.app_deliveries,
                      out.ack_ignored, out.retransmissions,
                      "yes" if out.exactly_once_transmission else "no")
    table.notes.append(
        "app deliveries must always be 1 (assumption 5: duplicate detection)")
    table.notes.append(
        "transmissions == 1 whenever the Ack beats the dereg (causal chain)")
    table.check("the application sees each result exactly once",
                all(out.exactly_once_delivery for out in outcomes))
    table.check("some offsets retransmit, others transmit exactly once",
                {out.exactly_once_transmission for out in outcomes} == {True, False})
    return table
