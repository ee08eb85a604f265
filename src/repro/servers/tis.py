"""Traffic Information Server (TIS).

The paper's motivating application (Section 1): a decentralized traffic
information base for a big city, "consisting of several interconnected
Traffic Information Servers", where "queries and updates to the global
information base may involve complex searches, interactions and
processing within the TIS network" — i.e. the long-request-time regime
that motivates RDP.

One :class:`TrafficInfoServer` owns a subset of the city's regions and is
connected to peer servers through an overlay (built by
:class:`~repro.servers.tis_network.TisNetwork`).  Operations:

* ``query``     — local hit answers immediately; otherwise a data-location
  protocol runs over the overlay (hop-by-hop routing toward the owner, or
  TTL-bounded flooding when no routing tables are configured);
* ``update``    — routed to the owner, which bumps the version, replicates
  to overlay neighbours and fires matching subscriptions;
* ``subscribe`` — sent to the region's owner and registered there; the
  subscriber is notified through its RDP proxy whenever the region's
  level changes by at least the subscribed threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Set

from ..core.protocol import ServerRequestMsg
from ..net.message import Message
from ..sim.event import Event
from ..types import NodeId, RequestId
from .base import AppServer
from .subscription import SubscriptionRegistry



@dataclass
class TrafficReport:
    """State of one region: congestion level plus versioning."""

    region: str
    level: float
    version: int = 1
    updated_at: float = 0.0

    def as_payload(self) -> Dict[str, Any]:
        return {
            "region": self.region,
            "level": self.level,
            "version": self.version,
            "updated_at": self.updated_at,
        }


# -- overlay messages ---------------------------------------------------------

@dataclass(slots=True, kw_only=True)
class TisLookupMsg(Message):
    kind: ClassVar[str] = "tis_lookup"
    op_id: int
    region: str
    origin: NodeId
    ttl: int = 8
    visited: tuple = ()

    def describe(self) -> str:
        return f"tis_lookup({self.region})"


@dataclass(slots=True, kw_only=True)
class TisLookupReplyMsg(Message):
    kind: ClassVar[str] = "tis_lookup_reply"
    op_id: int
    region: str
    report: Optional[Dict[str, Any]] = None

    def describe(self) -> str:
        return f"tis_lookup_reply({self.region})"


@dataclass(slots=True, kw_only=True)
class TisUpdateMsg(Message):
    kind: ClassVar[str] = "tis_update"
    op_id: int
    region: str
    level: float
    origin: NodeId
    ttl: int = 8

    def describe(self) -> str:
        return f"tis_update({self.region})"


@dataclass(slots=True, kw_only=True)
class TisUpdateAckMsg(Message):
    kind: ClassVar[str] = "tis_update_ack"
    op_id: int
    region: str
    version: int

    def describe(self) -> str:
        return f"tis_update_ack({self.region})"


@dataclass(slots=True, kw_only=True)
class TisReplicateMsg(Message):
    kind: ClassVar[str] = "tis_replicate"
    region: str
    report: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        return f"tis_replicate({self.region})"


@dataclass
class _PendingOp:
    """A client request waiting for the overlay to answer."""

    request: ServerRequestMsg
    region: str
    timer: Optional[Event] = None
    answered: bool = False


class TrafficInfoServer(AppServer):
    """One node of the decentralized traffic information base."""

    def __init__(self, *args: Any, regions: Optional[Set[str]] = None,
                 lookup_timeout: float = 5.0, flood_ttl: int = 8,
                 cache_ttl: float = 0.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.regions: Set[str] = set(regions or ())
        self.store: Dict[str, TrafficReport] = {
            region: TrafficReport(region=region, level=0.0) for region in self.regions
        }
        self.cache: Dict[str, TrafficReport] = {}
        self._cached_at: Dict[str, float] = {}
        self.cache_ttl = cache_ttl
        self.neighbors: List[NodeId] = []
        self.routes: Dict[str, NodeId] = {}  # region -> next hop toward owner
        self.lookup_timeout = lookup_timeout
        self.flood_ttl = flood_ttl
        self.subs = SubscriptionRegistry(self.node_id, self.wired)
        self._pending: Dict[int, _PendingOp] = {}
        # Per-instance so op ids are stable across repeated same-seed runs
        # in one process; uniqueness is only needed per origin server.
        self._op_ids = itertools.count(1)
        self.remote_lookups = 0
        self.cache_hits = 0

    # -- client-facing operations (arrive as ServerRequestMsg) -----------------

    def _complete(self, message: ServerRequestMsg) -> None:
        payload = message.payload if isinstance(message.payload, dict) else {}
        if payload.get("subscribe") is True:
            self._op_subscribe(message, payload)
            return
        op = payload.get("op")
        if op == "query":
            self._op_query(message, payload)
        elif op == "update":
            self._op_update(message, payload)
        else:
            self.reply(message, {"error": f"unknown TIS operation {op!r}"})

    def _op_query(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        region = payload.get("region", "")
        report = self.store.get(region)
        if report is not None:
            self.reply(message, report.as_payload())
            return
        cached = self._fresh_cached(region)
        if cached is not None:
            self.cache_hits += 1
            self.instr.metrics.incr("tis_cache_hits", node=self.node_id)
            self.reply(message, cached.as_payload())
            return
        self._start_lookup(message, region)

    def _fresh_cached(self, region: str) -> Optional[TrafficReport]:
        if self.cache_ttl <= 0:
            return None
        report = self.cache.get(region)
        if report is None:
            return None
        if self.sim.now - self._cached_at.get(region, -1e18) <= self.cache_ttl:
            return report
        return None

    def _start_lookup(self, message: ServerRequestMsg, region: str) -> None:
        op_id = next(self._op_ids)
        pending = _PendingOp(request=message, region=region)
        self._pending[op_id] = pending
        self.remote_lookups += 1
        self.instr.metrics.incr("tis_remote_lookups", node=self.node_id)
        lookup = TisLookupMsg(op_id=op_id, region=region, origin=self.node_id,
                              ttl=self.flood_ttl, visited=(self.node_id,))
        if not self._forward_lookup(lookup):
            self._finish_lookup(op_id, None)
            return
        pending.timer = self.sim.schedule(self.lookup_timeout,
                                          self._lookup_timed_out, op_id,
                                          label="tis:lookup-timeout")

    def _forward_lookup(self, lookup: TisLookupMsg) -> bool:
        """Route toward the owner, or flood; False when nowhere to go."""
        next_hop = self.routes.get(lookup.region)
        if next_hop is not None:
            self.wired.send(self.node_id, next_hop, lookup)
            return True
        if lookup.ttl <= 0:
            return False
        targets = [n for n in self.neighbors if n not in lookup.visited]
        if not targets:
            return False
        visited = lookup.visited + tuple(targets)
        for target in targets:
            self.wired.send(self.node_id, target, TisLookupMsg(
                op_id=lookup.op_id, region=lookup.region, origin=lookup.origin,
                ttl=lookup.ttl - 1, visited=visited))
        return True

    def _lookup_timed_out(self, op_id: int) -> None:
        self._finish_lookup(op_id, None)

    def _finish_lookup(self, op_id: int, report: Optional[Dict[str, Any]]) -> None:
        pending = self._pending.pop(op_id, None)
        if pending is None or pending.answered:
            return
        pending.answered = True
        if pending.timer is not None:
            pending.timer.cancel()
        if report is None:
            self.reply(pending.request, {"error": "region not found",
                                         "region": pending.region})
        else:
            self.reply(pending.request, report)

    def _op_update(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        region = payload.get("region", "")
        level = float(payload.get("level", 0.0))
        if region in self.regions:
            version = self.apply_update(region, level)
            self.reply(message, {"ok": True, "region": region, "version": version})
            return
        op_id = next(self._op_ids)
        self._pending[op_id] = _PendingOp(request=message, region=region)
        update = TisUpdateMsg(op_id=op_id, region=region, level=level,
                              origin=self.node_id, ttl=self.flood_ttl)
        if not self._forward_update(update):
            self._finish_lookup(op_id, None)
            return
        self._pending[op_id].timer = self.sim.schedule(
            self.lookup_timeout, self._lookup_timed_out, op_id,
            label="tis:update-timeout")

    def _forward_update(self, update: TisUpdateMsg) -> bool:
        next_hop = self.routes.get(update.region)
        if next_hop is None:
            return False
        self.wired.send(self.node_id, next_hop, update)
        return True

    def _op_subscribe(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        region = payload.get("region", "")
        threshold = float(payload.get("threshold", 1.0))
        assert message.reply_to is not None
        if region not in self.regions:
            self.reply(message, {"error": "region not found", "region": region})
            return
        entry = self.subs.open(message.request_id, message.reply_to,
                               params={"region": region, "threshold": threshold})
        report = self.store.get(region)
        entry.last_value = report.level if report else 0.0
        self.instr.metrics.incr("tis_subscriptions_opened", node=self.node_id)

    # -- owner-side state changes ------------------------------------------------

    def apply_update(self, region: str, level: float) -> int:
        """Apply an update to an owned region; returns the new version."""
        report = self.store.get(region)
        if report is None:
            report = TrafficReport(region=region, level=level)
            self.store[region] = report
            self.regions.add(region)
        else:
            report.level = level
            report.version += 1
        report.updated_at = self.sim.now
        self.instr.metrics.incr("tis_updates_applied", node=self.node_id)
        self._replicate(report)
        self._fire_subscriptions(report)
        return report.version

    def _replicate(self, report: TrafficReport) -> None:
        for neighbor in self.neighbors:
            self.wired.send(self.node_id, neighbor, TisReplicateMsg(
                region=report.region, report=report.as_payload()))

    def _fire_subscriptions(self, report: TrafficReport) -> None:
        for entry in list(self.subs.entries.values()):
            if entry.params.get("region") != report.region:
                continue
            threshold = float(entry.params.get("threshold", 1.0))
            baseline = entry.last_value if entry.last_value is not None else 0.0
            if abs(report.level - baseline) >= threshold:
                entry.last_value = report.level
                self.subs.notify(entry.subscription_id, report.as_payload())

    def end_subscription(self, subscription_id: RequestId, payload: Any = None) -> bool:
        return self.subs.close(subscription_id, payload)

    # -- overlay message handling ---------------------------------------------------

    def handle_other(self, message: Message) -> None:
        if isinstance(message, TisLookupMsg):
            self._on_lookup(message)
        elif isinstance(message, TisLookupReplyMsg):
            report = None
            if message.report is not None:
                report = dict(message.report)
                self._install_cache(TrafficReport(
                    region=message.region,
                    level=report["level"],
                    version=report["version"],
                    updated_at=report["updated_at"]))
            self._finish_lookup(message.op_id, report)
        elif isinstance(message, TisUpdateMsg):
            self._on_update_msg(message)
        elif isinstance(message, TisUpdateAckMsg):
            self._finish_lookup(message.op_id, {"ok": True,
                                                "region": message.region,
                                                "version": message.version})
        elif isinstance(message, TisReplicateMsg):
            report = message.report
            self._install_cache(TrafficReport(
                region=message.region, level=report["level"],
                version=report["version"], updated_at=report["updated_at"]))
        else:
            super().handle_other(message)

    def _install_cache(self, report: TrafficReport) -> None:
        existing = self.cache.get(report.region)
        if existing is None or report.version >= existing.version:
            self.cache[report.region] = report
            self._cached_at[report.region] = self.sim.now

    def _on_lookup(self, message: TisLookupMsg) -> None:
        report = self.store.get(message.region)
        if report is not None:
            self.wired.send(self.node_id, message.origin, TisLookupReplyMsg(
                op_id=message.op_id, region=message.region,
                report=report.as_payload()))
            return
        self._forward_lookup(message)

    def _on_update_msg(self, message: TisUpdateMsg) -> None:
        if message.region in self.regions:
            version = self.apply_update(message.region, message.level)
            self.wired.send(self.node_id, message.origin, TisUpdateAckMsg(
                op_id=message.op_id, region=message.region, version=version))
            return
        if not self._forward_update(message):
            pass  # undeliverable; the origin's timeout answers the client
