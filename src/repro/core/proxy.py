"""The proxy for requests — the paper's central mechanism (Section 3).

A proxy is created on behalf of a mobile host at some MSS (normally the
respMss at the time of the first request).  It provides a fixed address
for server replies, tracks pending requests in ``requestlist``, stores
results until they are acknowledged, forwards results to the MH's current
respMss (``currentloc``), and re-sends unacknowledged results on every
``update_currentloc``.  It removes itself through the del-pref / RKpR /
del-proxy handshake of Section 3.3.

The proxy is not a network node: it lives inside its hosting MSS, which
routes wired messages to it by ``proxy_id`` and lends it its network
identity for sends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Protocol, Set

from ..errors import ProxyError
from ..instruments import Instruments
from ..engine import Engine
from ..sim.process import Retrier, retry_policy
from ..types import NodeId, ProxyId, ProxyRef, RequestId
from .protocol import (
    AckForwardMsg,
    DelPrefNoticeMsg,
    DelProxyConfirmMsg,
    ForwardedRequestMsg,
    NotificationMsg,
    ResultBounceMsg,
    ResultForwardMsg,
    ServerAckMsg,
    ServerRequestMsg,
    ServerResultMsg,
    SubscriptionEndMsg,
    UpdateCurrentLocMsg,
    is_subscription,
)

class ProxyHost(Protocol):
    """What the proxy needs from its hosting MSS."""

    node_id: NodeId

    def proxy_wired_send(self, dst: NodeId, message: Any) -> None: ...
    def resolve_service(self, service: str) -> Optional[NodeId]: ...
    def remove_proxy(self, proxy_id: ProxyId) -> None: ...
    def proxy_page_mh(self, mh: NodeId, reply_to: "ProxyRef") -> None: ...


@dataclass
class RequestRecord:
    """State of one pending (not yet acknowledged) request."""

    request_id: RequestId
    service: str
    payload: Any = None
    server: Optional[NodeId] = None
    issued_at: float = 0.0
    result: Any = None
    result_received: bool = False
    delivery_id: int = 0
    # When the result entered this proxy's custody (result store); drives
    # the custody-age histogram and the optional custody TTL.
    custody_since: Optional[float] = None
    forward_count: int = 0
    # When the first ResultForward left the proxy; the redelivery-latency
    # histogram measures first-forward -> Ack for requests that needed
    # more than one attempt (ack-timeout or bounce-retry redelivery).
    first_forward_at: Optional[float] = None
    is_subscription: bool = False
    is_notification: bool = False


class Proxy:
    """One mobile host's proxy for requests."""

    def __init__(
        self,
        sim: Engine,
        host: ProxyHost,
        mh: NodeId,
        proxy_id: ProxyId,
        instruments: Instruments,
        send_server_acks: bool = False,
        ack_timeout: Optional[float] = None,
        custody_ttl: Optional[float] = None,
        currentloc: Optional[NodeId] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.mh = mh
        self.proxy_id = proxy_id
        self.instr = instruments
        self.send_server_acks = send_server_acks
        # Bound on result custody: a held result older than this is
        # discarded with an explicit custody_expired trace instead of
        # leaking silently.  None (the default) keeps custody forever —
        # the paper's unbounded result store.
        self.custody_ttl = custody_ttl
        # The MH's believed location: the hosting MSS by default, or the
        # respMss that requested this proxy's creation (AN5 hand-off).
        self.currentloc: NodeId = (
            currentloc if currentloc is not None else host.node_id)
        self.requestlist: Dict[RequestId, RequestRecord] = {}
        self.completed: Set[RequestId] = set()
        # With an ack timeout, a forwarded result that is not acknowledged
        # in time is re-forwarded, the delay doubling per forward up to
        # 4x: an unacked result must converge within a bounded drain
        # window rather than back off past it.  Off by default: the
        # paper's proxy is purely event-driven, and on a reliable fabric
        # every orphan is healed by the next update_currentloc; an MSS
        # crash can destroy the pref whose location update the proxy is
        # waiting for.
        self._ack_retry = Retrier(
            sim, retry_policy(ack_timeout,
                              None if ack_timeout is None else 4 * ack_timeout),
            self._ack_timeout_fired, "proxy:ack-timeout")
        # One redelivery timer per request, shared by bounce handling and
        # transport failures: 0.5 s doubled per forward, capped at 8 s.
        # Long enough for a crashed respMss to come back and the MH to
        # re-register; short enough to beat the client's end-to-end retry.
        self._bounce_retry = Retrier(sim, retry_policy(0.5, 8.0),
                                     self._bounce_retry_fired, "proxy:bounce-retry")
        self._custody_timers: Dict[RequestId, Any] = {}
        self.deleted = False
        self.created_at = sim.now
        self.retransmissions = 0
        self._obs_custody_age = instruments.hub.histogram(
            "rdp_proxy_custody_age_seconds",
            "Time a result spent in proxy custody before Ack or expiry",
            buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0,
                     60.0, 120.0))
        instruments.metrics.incr("proxies_created", node=host.node_id)
        instruments.recorder.record(sim.now, "proxy_create", host.node_id,
                                    mh=mh, proxy_id=proxy_id)

    @property
    def ref(self) -> ProxyRef:
        return ProxyRef(mss=self.host.node_id, proxy_id=self.proxy_id)

    # -- inbound handlers (called by the hosting MSS router) ---------------

    def handle_forwarded_request(self, msg: ForwardedRequestMsg) -> None:
        self.admit_request(msg.request_id, msg.service, msg.payload)

    def admit_request(self, request_id: RequestId, service: str,
                      payload: Any) -> None:
        """Register a request and dispatch it to the application server."""
        if self.deleted:
            raise ProxyError(f"request {request_id} reached deleted proxy {self.proxy_id}")
        record = self.requestlist.get(request_id)
        if record is not None:
            self.instr.metrics.incr("proxy_duplicate_requests")
            if record.result_received:
                # A client retry means the result never made it down the
                # last wireless hop; re-send instead of waiting for the
                # next location update.
                self._forward_result(record, retransmission=True)
            return
        if request_id in self.completed:
            self.instr.metrics.incr("proxy_duplicate_requests")
            return
        record = RequestRecord(
            request_id=request_id,
            service=service,
            payload=payload,
            issued_at=self.sim.now,
            is_subscription=is_subscription(payload),
        )
        self.requestlist[request_id] = record
        self.instr.metrics.incr("proxy_requests_admitted", node=self.host.node_id)
        if self.instr.recorder.wants("proxy_admit"):
            self.instr.recorder.record(self.sim.now, "proxy_admit",
                                       self.host.node_id,
                                       mh=self.mh, proxy_id=self.proxy_id,
                                       request_id=request_id)
        server = self.host.resolve_service(service)
        if server is None:
            # Fail fast toward the client: synthesize an error result so
            # the request still completes through the normal path.
            self._accept_result(record, {"error": f"unknown service {service!r}"})
            return
        record.server = server
        self.host.proxy_wired_send(server, ServerRequestMsg(
            request_id=request_id,
            service=service,
            payload=payload,
            reply_to=self.ref,
        ))

    def handle_server_result(self, msg: ServerResultMsg) -> None:
        record = self.requestlist.get(msg.request_id)
        if record is None or record.result_received:
            self.instr.metrics.incr("proxy_stale_server_results")
            return
        self._accept_result(record, msg.payload)

    def handle_notification(self, msg: NotificationMsg) -> None:
        """A server push through an open subscription becomes a pending
        child request whose result is already known."""
        parent = self.requestlist.get(msg.subscription_id)
        if parent is None:
            self.instr.metrics.incr("proxy_stale_notifications")
            return
        child_id = RequestId(f"{msg.subscription_id}#n{msg.seq}")
        if child_id in self.requestlist or child_id in self.completed:
            self.instr.metrics.incr("proxy_duplicate_notifications")
            return
        record = RequestRecord(
            request_id=child_id,
            service=parent.service,
            issued_at=self.sim.now,
            is_notification=True,
        )
        self.requestlist[child_id] = record
        self._accept_result(record, msg.payload)

    def handle_subscription_end(self, msg: SubscriptionEndMsg) -> None:
        record = self.requestlist.get(msg.subscription_id)
        if record is None or record.result_received:
            self.instr.metrics.incr("proxy_stale_subscription_ends")
            return
        self._accept_result(record, msg.payload)

    def handle_update_currentloc(self, msg: UpdateCurrentLocMsg) -> None:
        """Update the MH's location and re-send unacknowledged results."""
        self.currentloc = msg.new_mss
        self.instr.metrics.incr("proxy_location_updates", node=self.host.node_id)
        for record in list(self.requestlist.values()):
            if record.result_received:
                retransmission = record.forward_count > 0
                self._forward_result(record, retransmission=retransmission)

    def handle_del_proxy_confirm(self, msg: DelProxyConfirmMsg) -> None:
        """Explicit removal confirmation (the piggyback race closer)."""
        if self.deleted:
            return
        if self.requestlist:
            # New work arrived through a re-created pref in the meantime;
            # never drop live requests (same guard as the Ack-borne flag).
            self.instr.metrics.incr("proxy_del_proxy_with_pending")
            return
        self._delete()

    def handle_result_bounce(self, msg: ResultBounceMsg) -> None:
        """A forwarded result found no MH at ``currentloc``: retry later.

        Without this the orphan is permanent when the respMss crash wiped
        the pref that would have triggered the next ``update_currentloc``
        retransmission.  One timer per request; deterministic exponential
        backoff so repeated bounces against a long outage stay cheap.
        """
        record = self.requestlist.get(msg.request_id)
        if (self.deleted or record is None or not record.result_received
                or msg.request_id in self._bounce_retry):
            self.instr.metrics.incr("proxy_stale_bounces")
            return
        self.instr.metrics.incr("proxy_bounce_retries", node=self.host.node_id)
        self._bounce_retry.arm(msg.request_id, attempt=record.forward_count + 1)

    def on_delivery_failure(self, request_id: RequestId) -> None:
        """The wired transport exhausted its retry budget on a forwarded
        result (routed back here by the hosting MSS).

        Transport persistence gave up — typically a partition outlasting
        the whole retransmission schedule — so recovery moves up a
        layer: the same paged redelivery loop that services bounces
        re-forwards along whatever route ``update_currentloc`` reveals
        once connectivity returns."""
        record = self.requestlist.get(request_id)
        if (self.deleted or record is None or not record.result_received
                or request_id in self._bounce_retry):
            return
        self.instr.metrics.incr("proxy_transport_failures",
                                node=self.host.node_id)
        self._bounce_retry.arm(request_id, attempt=record.forward_count + 1)

    def _bounce_retry_fired(self, request_id: RequestId, _attempt: int) -> None:
        record = self.requestlist.get(request_id)
        if self.deleted or record is None or not record.result_received:
            return  # acked (or the proxy died) while we waited
        # The bounce proved currentloc is stale; page for the MH so the
        # station actually hosting it corrects us with update_currentloc.
        # The blind re-forward still goes out: the MH may simply have
        # returned to currentloc in the meantime.
        self.host.proxy_page_mh(self.mh, self.ref)
        self._forward_result(record, retransmission=True)

    def handle_ack_forward(self, msg: AckForwardMsg) -> None:
        record = self.requestlist.pop(msg.request_id, None)
        if record is None:
            self.instr.metrics.incr("proxy_duplicate_acks")
        else:
            self._ack_retry.cancel(msg.request_id)
            custody_timer = self._custody_timers.pop(msg.request_id, None)
            if custody_timer is not None:
                custody_timer.cancel()
            self._bounce_retry.cancel(msg.request_id)
            if record.custody_since is not None:
                self._obs_custody_age.observe(self.sim.now - record.custody_since)
            self.completed.add(msg.request_id)
            if self.instr.recorder.wants("proxy_ack"):
                self.instr.recorder.record(self.sim.now, "proxy_ack",
                                           self.host.node_id,
                                           mh=self.mh, proxy_id=self.proxy_id,
                                           request_id=msg.request_id)
            self.instr.metrics.incr("proxy_requests_completed", node=self.host.node_id)
            self.instr.metrics.observe(
                "request_completion_time", self.sim.now - record.issued_at)
            if record.forward_count > 1 and record.first_forward_at is not None:
                # This request needed redelivery (ack timeout, bounce
                # retry or location-update retransmission): record how
                # long the recovery took and how many attempts it cost.
                self.instr.metrics.observe(
                    "redelivery_latency", self.sim.now - record.first_forward_at)
                self.instr.metrics.observe(
                    "redelivery_attempts", float(record.forward_count))
            if (self.send_server_acks and record.server is not None
                    and not record.is_notification):
                self.host.proxy_wired_send(record.server, ServerAckMsg(
                    request_id=msg.request_id))
        if msg.del_proxy:
            if self.requestlist:
                # The respMss confirmed removal but new work arrived in the
                # meantime through a re-created pref; never drop live
                # requests (defensive guard, counted for the verifier).
                self.instr.metrics.incr("proxy_del_proxy_with_pending")
            else:
                self._delete()
            return
        self._maybe_signal_last_pending()

    # -- internals ----------------------------------------------------------

    def _accept_result(self, record: RequestRecord, payload: Any) -> None:
        record.result = payload
        record.result_received = True
        record.delivery_id = self.sim.ids.delivery()
        record.custody_since = self.sim.now
        self.instr.metrics.incr("proxy_results_received", node=self.host.node_id)
        if self.instr.recorder.wants("proxy_result"):
            # Custody begins here: the no-custody-leak invariant demands
            # every one of these rows is discharged by a proxy_ack, a
            # custody_expired, or the hosting MSS crashing.
            self.instr.recorder.record(self.sim.now, "proxy_result",
                                       self.host.node_id,
                                       mh=self.mh, proxy_id=self.proxy_id,
                                       request_id=record.request_id)
        self._arm_custody_timer(record)
        self._forward_result(record, retransmission=False)

    def _arm_custody_timer(self, record: RequestRecord) -> None:
        if self.custody_ttl is None or record.custody_since is None:
            return
        old = self._custody_timers.pop(record.request_id, None)
        if old is not None:
            old.cancel()
        remaining = max(0.0, record.custody_since + self.custody_ttl - self.sim.now)
        self._custody_timers[record.request_id] = self.sim.schedule(
            remaining, self._custody_expired, record.request_id,
            label="proxy:custody-ttl")

    def _custody_expired(self, request_id: RequestId) -> None:
        self._custody_timers.pop(request_id, None)
        record = self.requestlist.get(request_id)
        if self.deleted or record is None or not record.result_received:
            return
        del self.requestlist[request_id]
        self._ack_retry.cancel(request_id)
        self._bounce_retry.cancel(request_id)
        age = self.sim.now - (record.custody_since or self.created_at)
        self._obs_custody_age.observe(age)
        self.instr.metrics.incr("proxy_custody_expired", node=self.host.node_id)
        self.instr.recorder.record(self.sim.now, "custody_expired",
                                   self.host.node_id,
                                   mh=self.mh, proxy_id=self.proxy_id,
                                   request_id=request_id, age=age)

    def _is_last_pending(self, request_id: RequestId) -> bool:
        return len(self.requestlist) == 1 and request_id in self.requestlist

    def _forward_result(self, record: RequestRecord, retransmission: bool) -> None:
        del_pref = self._is_last_pending(record.request_id)
        record.forward_count += 1
        if record.first_forward_at is None:
            record.first_forward_at = self.sim.now
        if retransmission:
            self.retransmissions += 1
            self.instr.metrics.incr("proxy_retransmissions", node=self.host.node_id)
            if self.instr.recorder.wants("retransmit"):
                self.instr.recorder.record(
                    self.sim.now, "retransmit", self.host.node_id,
                    mh=self.mh, request_id=record.request_id, to=self.currentloc)
        self.host.proxy_wired_send(self.currentloc, ResultForwardMsg(
            mh=self.mh,
            proxy_ref=self.ref,
            request_id=record.request_id,
            delivery_id=record.delivery_id,
            payload=record.result,
            del_pref=del_pref,
            retransmission=retransmission,
        ))
        self._ack_retry.arm(record.request_id, attempt=record.forward_count)

    def _ack_timeout_fired(self, request_id: RequestId, _attempt: int) -> None:
        record = self.requestlist.get(request_id)
        if self.deleted or record is None or not record.result_received:
            return  # acked (or the proxy died) in the meantime
        self.instr.metrics.incr("proxy_ack_timeouts", node=self.host.node_id)
        self._forward_result(record, retransmission=True)

    def _cancel_timers(self) -> None:
        """Disarm every timer of a dead proxy: under a wall-clock engine a
        stale one keeps the event loop alive and fires after the proxy's
        state moved on, where the simulator's callbacks merely re-check."""
        self._ack_retry.cancel_all()
        for timer in self._custody_timers.values():
            timer.cancel()
        self._custody_timers.clear()
        self._bounce_retry.cancel_all()

    def _maybe_signal_last_pending(self) -> None:
        """Figure 4's special message: when an Ack leaves exactly one
        pending request whose result was already forwarded (without a
        del-pref that is still valid), tell the respMss to set RKpR."""
        if len(self.requestlist) != 1:
            return
        (record,) = self.requestlist.values()
        if record.result_received and record.forward_count > 0:
            self.instr.metrics.incr("proxy_del_pref_notices", node=self.host.node_id)
            self.host.proxy_wired_send(self.currentloc, DelPrefNoticeMsg(
                mh=self.mh, proxy_ref=self.ref))

    # -- migration (future-work extension; see docs/PROTOCOL.md §8) ---------

    def export_state(self) -> Dict[str, Any]:
        """Serialize for a move to another MSS."""
        return {
            "mh": self.mh,
            "records": list(self.requestlist.values()),
            "completed": set(self.completed),
            "retransmissions": self.retransmissions,
            "created_at": self.created_at,
        }

    def state_bytes(self) -> int:
        """Modelled wire size of the exported state."""
        from ..net.message import _payload_size

        total = 32
        for record in self.requestlist.values():
            total += 48 + _payload_size(record.payload) + _payload_size(record.result)
        total += 8 * len(self.completed)
        return total

    def import_state(self, state: Dict[str, Any]) -> None:
        """Install a moved proxy's state (the new host calls this once,
        right after construction)."""
        for record in state["records"]:
            self.requestlist[record.request_id] = record
            if record.result_received:
                # Custody moved with the record; the TTL clock does not
                # reset on migration.
                self._arm_custody_timer(record)
        self.completed = set(state["completed"])
        self.retransmissions = state.get("retransmissions", 0)
        self.created_at = state.get("created_at", self.created_at)

    def after_relocation(self) -> None:
        """Post-move fixups: point open subscriptions at the new address
        and re-send anything unacknowledged (the MH is at our host)."""
        from .protocol import SubscriptionRelocateMsg

        for record in self.requestlist.values():
            if record.is_subscription and record.server is not None:
                self.host.proxy_wired_send(record.server, SubscriptionRelocateMsg(
                    subscription_id=record.request_id, new_ref=self.ref))
        for record in list(self.requestlist.values()):
            if record.result_received:
                self._forward_result(record,
                                     retransmission=record.forward_count > 0)

    def mark_migrated(self) -> None:
        """The old host calls this after exporting: the object is dead."""
        self.deleted = True
        self._cancel_timers()

    def _delete(self) -> None:
        if self.deleted:
            return
        self.deleted = True
        self._cancel_timers()
        self.instr.metrics.incr("proxies_deleted", node=self.host.node_id)
        self.instr.metrics.observe("proxy_lifetime", self.sim.now - self.created_at)
        self.instr.recorder.record(self.sim.now, "proxy_delete", self.host.node_id,
                                   mh=self.mh, proxy_id=self.proxy_id)
        self.host.remove_proxy(self.proxy_id)
