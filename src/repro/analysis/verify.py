"""Protocol invariant verification over recorded traces and world state.

Checks the paper's guarantees after (or during) a run:

* **at-least-once** — every admitted request is eventually delivered to
  the MH (given the run was driven to quiescence);
* **exactly-once at the application** — the MH never *delivers* the same
  result twice to the application (duplicate transmissions are allowed,
  duplicate deliveries are not — the MH filters them, assumption 5);
* **at-most-one proxy** — a mobile host never has two live proxies with
  pending requests;
* **pref consistency** — every pref with a non-null address points at a
  live proxy hosting that MH.

``check_all`` raises :class:`~repro.errors.VerificationError` with a
description of the first violated invariant.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set

from ..errors import VerificationError
from ..types import NodeId

if TYPE_CHECKING:
    from ..world import World


@dataclass
class VerificationReport:
    """Result of verifying one world."""

    ok: bool = True
    violations: List[str] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise VerificationError("; ".join(self.violations))


def check_delivery_at_least_once(world: "World", report: VerificationReport) -> None:
    """Every completed client request has at least one delivered result.

    Only meaningful after ``run_until_idle`` with every MH left active and
    reachable at the end.
    """
    report.checked.append("at_least_once")
    for name, client in world.clients.items():
        for pending in client.requests.values():
            if not pending.done:
                report.fail(
                    f"request {pending.request_id} of {name} never completed")


def check_no_duplicate_app_deliveries(world: "World", report: VerificationReport) -> None:
    """The application layer never sees the same delivery id twice."""
    report.checked.append("no_duplicate_app_deliveries")
    for name, host in world.hosts.items():
        per_request = Counter(rid for _, rid, _ in host.deliveries)
        for rid, count in per_request.items():
            if count > 1:
                report.fail(
                    f"{name} delivered request {rid} to the application "
                    f"{count} times")


def check_at_most_one_live_proxy(world: "World", report: VerificationReport) -> None:
    """No MH has two live proxies with pending requests at the end."""
    report.checked.append("at_most_one_live_proxy")
    busy: Dict[NodeId, List[str]] = defaultdict(list)
    for station in world.stations.values():
        for proxy in station.proxies.values():
            if proxy.requestlist:
                busy[proxy.mh].append(f"{station.node_id}/{proxy.proxy_id}")
    for mh, proxies in busy.items():
        if len(proxies) > 1:
            report.fail(f"{mh} has {len(proxies)} busy proxies: {proxies}")


def check_proxy_uniqueness_over_time(world: "World", report: VerificationReport) -> None:
    """From the trace: one serving proxy per MH at any time.

    A brief benign overlap exists while a drained proxy waits for its
    ``del-proxy`` Ack and the MH's next request already created its
    successor; the invariant is that a *superseded* proxy never admits
    another request.
    """
    report.checked.append("proxy_uniqueness_over_time")
    open_proxies: Dict[str, Set[str]] = defaultdict(set)
    condemned: Set[tuple] = set()
    for rec in world.recorder:
        if rec.kind == "proxy_create":
            mh = rec.get("mh")
            for older in open_proxies[mh]:
                condemned.add((mh, older))
            open_proxies[mh].add(rec.get("proxy_id"))
        elif rec.kind == "proxy_delete":
            mh = rec.get("mh")
            proxy_id = rec.get("proxy_id")
            open_proxies[mh].discard(proxy_id)
            condemned.discard((mh, proxy_id))
        elif rec.kind == "proxy_admit":
            key = (rec.get("mh"), rec.get("proxy_id"))
            if key in condemned:
                report.fail(
                    f"superseded proxy {key[1]} of {key[0]} admitted request "
                    f"{rec.get('request_id')} at t={rec.time}")
    for mh, proxy_id in condemned:
        report.fail(
            f"superseded proxy {proxy_id} of {mh} never deleted")


def check_pref_consistency(world: "World", report: VerificationReport) -> None:
    """Every non-null pref points at a live proxy for that MH."""
    report.checked.append("pref_consistency")
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
                report.fail(
                    f"{station.node_id} pref for {mh} points at missing "
                    f"proxy {pref.ref}")
            elif proxy.mh != mh:
                report.fail(
                    f"{station.node_id} pref for {mh} points at proxy of "
                    f"{proxy.mh}")


def check_registration_uniqueness(world: "World", report: VerificationReport) -> None:
    """No MH is registered at two stations simultaneously (assumption 3)."""
    report.checked.append("registration_uniqueness")
    owners: Dict[NodeId, List[NodeId]] = defaultdict(list)
    for station in world.stations.values():
        for mh, entry in station.entries.items():
            if entry.pref is not None:
                owners[mh].append(station.node_id)
    for mh, stations in owners.items():
        if len(stations) > 1:
            report.fail(f"{mh} registered at {len(stations)} MSSs: {stations}")


def check_proxy_reachability(world: "World", report: VerificationReport) -> None:
    """Every live proxy with pending work is reachable: some pref (or an
    in-flight custody hand-over) references it, or its MH's respMss can
    rebuild the reference from the proxy's own forwards.  A busy proxy
    whose MH is registered elsewhere with a *different* pref is stranded
    state — the class of bug the custody-fork fixes close."""
    report.checked.append("proxy_reachability")
    refs = set()
    registered: Set[NodeId] = set()
    for station in world.stations.values():
        for mh, entry in station.entries.items():
            if entry.pref is not None:
                registered.add(mh)
                if entry.pref.ref is not None:
                    refs.add((entry.pref.ref.mss, str(entry.pref.ref.proxy_id)))
        for proxy_id, stub in station._proxy_stubs.items():
            refs.add((stub.mss, str(stub.proxy_id)))
    for station in world.stations.values():
        for proxy in station.proxies.values():
            if not proxy.requestlist:
                continue
            key = (station.node_id, str(proxy.proxy_id))
            if key in refs:
                continue
            if proxy.mh not in registered:
                # The MH is mid-hand-off or gone; its next registration
                # carries the pref along — not a stranding.
                continue
            report.fail(
                f"busy proxy {proxy.proxy_id} at {station.node_id} for "
                f"{proxy.mh} is referenced by no pref")


def check_no_lingering_proxies(world: "World", report: VerificationReport) -> None:
    """After quiescence with no open subscriptions, all proxies are gone."""
    report.checked.append("no_lingering_proxies")
    for station in world.stations.values():
        for proxy in station.proxies.values():
            if proxy.requestlist:
                report.fail(
                    f"proxy {proxy.proxy_id} at {station.node_id} still has "
                    f"pending requests {sorted(proxy.requestlist)}")


def check_all(world: "World", expect_quiescent: bool = True,
              expect_no_proxies: bool = False) -> VerificationReport:
    """Run every applicable invariant check; returns the report."""
    report = VerificationReport()
    check_no_duplicate_app_deliveries(world, report)
    check_at_most_one_live_proxy(world, report)
    check_proxy_uniqueness_over_time(world, report)
    check_pref_consistency(world, report)
    check_registration_uniqueness(world, report)
    check_proxy_reachability(world, report)
    if expect_quiescent:
        check_delivery_at_least_once(world, report)
    if expect_no_proxies:
        check_no_lingering_proxies(world, report)
    return report
