#!/usr/bin/env python3
"""Debugging a hand-off race with the analysis toolbox.

Reconstructs the paper's trickiest moment — a result arriving exactly
while its recipient changes cells — and shows the three views the
analysis toolbox offers for understanding it:

* the per-entity **timeline** (who did what, when),
* the **message-sequence chart** (Figure-3 style arrows),
* the request's **delivery span** (where the time went).

Run:  python examples/protocol_debugging.py
"""

from __future__ import annotations

from repro import World, WorldConfig
from repro.analysis.sequence import extract_chart, render_chart
from repro.analysis.timeline import extract_timeline, lane_summary, render_timeline
from repro.config import LatencySpec
from repro.obs.spans import SpanBuilder
from repro.servers.echo import ManualServer


def main() -> None:
    world = World(WorldConfig(
        n_cells=3,
        wired_latency=LatencySpec(kind="constant", mean=0.010),
        wireless_latency=LatencySpec(kind="constant", mean=0.005),
    ))
    server = world.add_server("oracle", ManualServer)
    client = world.add_host("traveler", world.cells[0])
    host = world.hosts["traveler"]

    pending = {}
    world.sim.schedule(0.100, lambda: pending.setdefault(
        "q", client.request("oracle", "where is the jam?")))
    world.sim.schedule(0.500, host.migrate_to, world.cells[1])
    # Release the answer so its wireless delivery races the next hop:
    world.sim.schedule(1.000, server.release_next, "take the ring road")
    world.sim.schedule(1.022, host.migrate_to, world.cells[2])
    world.run_until_idle()

    print(render_timeline(extract_timeline(world.recorder),
                          title="what every entity did"))
    print()
    print(f"lane summary: {lane_summary(extract_timeline(world.recorder))}")
    print()
    chart = extract_chart(world.recorder, kinds={
        "result_forward", "wireless_result", "update_currentloc",
        "ack", "ack_forward"})
    print(render_chart(chart, title="the race, as message arrows"))
    print()
    for span in SpanBuilder.from_records(world.recorder).spans:
        admission, service, delivery = span.segments()
        print(f"span {span.request_id}: admission {admission * 1000:.1f} ms, "
              f"service {service * 1000:.1f} ms, "
              f"delivery {delivery * 1000:.1f} ms "
              f"({span.handoff_overlaps} hand-offs overlapped, "
              f"{len(span.hops)} hops)")
    print()
    print(f"verdict: delivered={pending['q'].done}, "
          f"retransmissions={world.metrics.count('proxy_retransmissions')}, "
          f"duplicates at the app={world.hosts['traveler'].duplicate_deliveries}")


if __name__ == "__main__":
    main()
