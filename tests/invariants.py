"""Invariant assertions for end-of-run world checks in tests.

The protocol's guarantees (exactly-once, no lost result, one proxy per
series, safe deletion, custody, causal order, pref hand-over) are stated
once, by the online oracle (:mod:`repro.verify.oracle`).  What the trace
alone cannot see is world state at the end of a run; the two checks
below read it directly:

* pref consistency — every non-null pref points at a live proxy of that
  MH;
* proxy reachability — every busy proxy is referenced by some pref or
  in-flight custody hand-over, unless its MH is between registrations.
"""

from __future__ import annotations

from typing import List, Optional

from repro.sim import TraceRecorder
from repro.verify.oracle import Oracle


def attach_oracle(world) -> Oracle:
    """Every oracle checker on *world*'s trace, from the next row on."""
    return Oracle().attach(world.recorder)


def replayed_oracle(recorder: TraceRecorder) -> Oracle:
    """An oracle fed every row *recorder* kept (for worlds a scenario
    builder ran before the test could attach one)."""
    replay = TraceRecorder()
    oracle = Oracle().attach(replay)
    for time, kind, node, fields in recorder.rows():
        replay.record(time, kind, node, **fields)
    return oracle


def check_pref_consistency(world) -> List[str]:
    """Every non-null pref points at a live proxy for that MH."""
    violations = []
    proxies_by_ref = {}
    for station in world.stations.values():
        for proxy in station.proxies.values():
            proxies_by_ref[(station.node_id, proxy.proxy_id)] = proxy
    for station in world.stations.values():
        for mh, entry in station.entries.items():
            pref = entry.pref
            if pref is None or pref.ref is None:
                continue
            proxy = proxies_by_ref.get((pref.ref.mss, pref.ref.proxy_id))
            if proxy is None:
                violations.append(
                    f"{station.node_id} pref for {mh} points at missing "
                    f"proxy {pref.ref}")
            elif proxy.mh != mh:
                violations.append(
                    f"{station.node_id} pref for {mh} points at proxy of "
                    f"{proxy.mh}")
    return violations


def check_proxy_reachability(world) -> List[str]:
    """Every live proxy with pending work is reachable: some pref (or an
    in-flight custody hand-over) references it, or its MH's respMss can
    rebuild the reference from the proxy's own forwards.  A busy proxy
    whose MH is registered elsewhere with a *different* pref is stranded
    state — the class of bug the custody-fork fixes close."""
    violations = []
    refs = set()
    registered = set()
    for station in world.stations.values():
        for mh, entry in station.entries.items():
            if entry.pref is not None:
                registered.add(mh)
                if entry.pref.ref is not None:
                    refs.add((entry.pref.ref.mss, str(entry.pref.ref.proxy_id)))
        for stub in station._proxy_stubs.values():
            refs.add((stub.mss, str(stub.proxy_id)))
    for station in world.stations.values():
        for proxy in station.proxies.values():
            if not proxy.requestlist:
                continue
            if (station.node_id, str(proxy.proxy_id)) in refs:
                continue
            if proxy.mh not in registered:
                # The MH is mid-hand-off or gone; its next registration
                # carries the pref along — not a stranding.
                continue
            violations.append(
                f"busy proxy {proxy.proxy_id} at {station.node_id} for "
                f"{proxy.mh} is referenced by no pref")
    return violations


def assert_invariants(world, oracle: Optional[Oracle] = None) -> None:
    """The oracle's end-of-run verdict is clean and so is world state.

    *oracle* defaults to one replayed over the world's whole trace."""
    if oracle is None:
        oracle = replayed_oracle(world.recorder)
    violations = [v.describe() for v in oracle.finish()]
    assert violations == [], "\n".join(violations)
    assert check_pref_consistency(world) == []
    assert check_proxy_reachability(world) == []
