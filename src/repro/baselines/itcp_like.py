"""I-TCP-style baseline: per-MH state lives at the respMss.

Bakre's indirect protocols (paper, Section 4) keep the mobile host's
connection *image* at its current MSS and transfer it wholesale during
hand-off.  The result-delivery analogue implemented here:

* requests go straight to the server; replies come back to the MSS that
  issued them;
* the respMss stores every unacknowledged result for its local MHs and
  re-sends them after a hand-off or reactivation (so reliability matches
  RDP);
* on hand-off, the **entire result store** (plus the request-ownership
  table) is serialized into the deregack — this is the state-transfer
  cost RDP avoids by keeping results at the proxy (experiment AN7);
* the old MSS keeps a **forwarding pointer** to the successor so that
  replies still in flight can chase the MH — the "residue" the paper
  notes RDP does not need (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from ..core.protocol import (
    AckMsg,
    DeregAckMsg,
    GreetMsg,
    RequestMsg,
    ServerRequestMsg,
    ServerResultMsg,
    WirelessResultMsg,
)
from ..net.message import _payload_size
from ..stations.mss import MobileSupportStation
from ..types import NodeId, ProxyId, ProxyRef, RequestId

_PSEUDO_PROXY = ProxyId("itcp")


@dataclass
class StoredResult:
    """One unacknowledged result held at the respMss."""

    request_id: RequestId
    delivery_id: int
    payload: Any = None

    def size_bytes(self) -> int:
        return 16 + _payload_size(self.payload)


@dataclass
class MhImage:
    """The per-MH state an I-TCP-style MSS keeps and transfers."""

    pending_requests: Dict[RequestId, Any] = field(default_factory=dict)
    unacked_results: Dict[RequestId, StoredResult] = field(default_factory=dict)

    def size_bytes(self) -> int:
        requests = sum(16 + _payload_size(p) for p in self.pending_requests.values())
        results = sum(r.size_bytes() for r in self.unacked_results.values())
        return requests + results


class ItcpLikeMss(MobileSupportStation):
    """MSS variant holding full per-MH images (I-TCP style)."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.images: Dict[NodeId, MhImage] = {}
        self._request_owner: Dict[RequestId, NodeId] = {}
        # Residue: where each departed MH went (never cleaned up).
        self.forwarding_pointers: Dict[NodeId, NodeId] = {}

    def _image(self, mh: NodeId) -> MhImage:
        if mh not in self.images:
            self.images[mh] = MhImage()
        return self.images[mh]

    # -- requests ---------------------------------------------------------------

    def _on_request(self, msg: RequestMsg) -> None:
        if self.pref_of(msg.mh) is None:
            self.instr.metrics.incr("requests_from_unregistered", node=self.node_id)
            return
        self.instr.metrics.incr("requests_accepted", node=self.node_id)
        server = self.resolve_service(msg.service)
        if server is None:
            self.instr.metrics.incr("requests_unresolvable", node=self.node_id)
            return
        image = self._image(msg.mh)
        if msg.request_id in image.pending_requests:
            return  # client retry; the original is still in flight
        image.pending_requests[msg.request_id] = msg.payload
        self._request_owner[msg.request_id] = msg.mh
        self._wired_send(server, ServerRequestMsg(
            request_id=msg.request_id, service=msg.service, payload=msg.payload,
            reply_to=ProxyRef(mss=self.node_id, proxy_id=_PSEUDO_PROXY)))

    # -- results ----------------------------------------------------------------

    def _on_proxy_bound(self, msg: Any) -> None:
        if not isinstance(msg, ServerResultMsg):
            self.instr.metrics.incr("mss_unhandled_messages", node=self.node_id)
            return
        mh = self._request_owner.pop(msg.request_id, None)
        if mh is None or self.pref_of(mh) is None:
            target = self.forwarding_pointers.get(mh) if mh is not None else None
            if target is None:
                self.instr.metrics.incr("itcp_results_stranded", node=self.node_id)
                return
            # Chase the MH along the forwarding chain.
            self.instr.metrics.incr("itcp_results_chased", node=self.node_id)
            self._request_owner[msg.request_id] = mh  # keep for size parity
            self._wired_send(target, _ChasedResult(
                request_id=msg.request_id, proxy_id=_PSEUDO_PROXY,
                payload=msg.payload, mh=mh))
            del self._request_owner[msg.request_id]
            return
        self._store_and_deliver(mh, msg.request_id, msg.payload)

    def _store_and_deliver(self, mh: NodeId, request_id: RequestId,
                           payload: Any) -> None:
        image = self._image(mh)
        image.pending_requests.pop(request_id, None)
        stored = image.unacked_results.get(request_id)
        if stored is None:
            stored = StoredResult(request_id=request_id,
                                  delivery_id=self.sim.ids.delivery(),
                                  payload=payload)
            image.unacked_results[request_id] = stored
        self.instr.metrics.incr("results_forwarded_to_mh", node=self.node_id)
        self._downlink(mh, WirelessResultMsg(
            mh=mh, request_id=request_id,
            delivery_id=stored.delivery_id, payload=stored.payload))

    def _on_ack(self, msg: AckMsg) -> None:
        if self.pref_of(msg.mh) is None:  # unknown, or surrendered
            self.instr.metrics.incr("acks_ignored_after_dereg", node=self.node_id)
            return
        image = self._image(msg.mh)
        if image.unacked_results.pop(msg.request_id, None) is not None:
            self.instr.metrics.incr("acks_forwarded", node=self.node_id)

    # -- hand-off: ship the whole image -------------------------------------------

    def _handoff_extra_bytes(self, mh: NodeId) -> int:
        image = self.images.get(mh)
        return image.size_bytes() if image is not None else 0

    def _wired_send(self, dst: NodeId, message: Any) -> None:
        # Ship the full image with every outgoing deregack (the base MSS
        # calls _handoff_extra_bytes first, while the image is still here,
        # so the modelled byte count matches) and leave a forwarding
        # pointer behind — the residue RDP avoids.
        if isinstance(message, DeregAckMsg):
            image = self.images.pop(message.mh, None)
            if image is not None:
                message.extra_state = image
            # The request->MH table stays behind: replies already in
            # flight toward this MSS must still find the forwarding
            # pointer.  More residue RDP does not have.
            self.forwarding_pointers[message.mh] = dst
        super()._wired_send(dst, message)

    def _install_handoff_state(self, msg: DeregAckMsg) -> None:
        image = msg.extra_state
        if not isinstance(image, MhImage):
            return
        self.images[msg.mh] = image
        for request_id in image.pending_requests:
            self._request_owner[request_id] = msg.mh
        self.instr.metrics.incr("itcp_images_received", node=self.node_id)
        # Re-deliver everything unacknowledged at the new cell.
        for stored in list(image.unacked_results.values()):
            self.instr.metrics.incr("itcp_redeliveries", node=self.node_id)
            self._downlink(msg.mh, WirelessResultMsg(
                mh=msg.mh, request_id=stored.request_id,
                delivery_id=stored.delivery_id, payload=stored.payload))

    def _on_greet(self, msg: GreetMsg) -> None:
        super()._on_greet(msg)
        mh = msg.mh
        image = self.images.get(mh)
        if msg.old_mss != self.node_id or image is None:
            return  # only a reactivation here redelivers the image
        for stored in list(image.unacked_results.values()):
            self.instr.metrics.incr("itcp_redeliveries", node=self.node_id)
            self._downlink(mh, WirelessResultMsg(
                mh=mh, request_id=stored.request_id,
                delivery_id=stored.delivery_id, payload=stored.payload))

    # -- chased results -------------------------------------------------------------

    def _handle(self, message: Any) -> None:
        if isinstance(message, _ChasedResult):
            self.instr.metrics.incr("mss_messages_processed", node=self.node_id)
            self._on_chased(message)
            return
        super()._handle(message)

    def _on_chased(self, message: "_ChasedResult") -> None:
        mh = message.mh
        if self.pref_of(mh) is not None:
            self._store_and_deliver(mh, message.request_id, message.payload)
            return
        target = self.forwarding_pointers.get(mh)
        if target is None:
            self.instr.metrics.incr("itcp_results_stranded", node=self.node_id)
            return
        self.instr.metrics.incr("itcp_results_chased", node=self.node_id)
        self._wired_send(target, _ChasedResult(
            request_id=message.request_id, proxy_id=_PSEUDO_PROXY,
            payload=message.payload, mh=mh))


from dataclasses import dataclass as _dataclass
from typing import ClassVar as _ClassVar

from ..net.message import Message as _Message


@_dataclass(slots=True, kw_only=True)
class _ChasedResult(_Message):
    """A server reply chasing a departed MH along forwarding pointers."""

    kind: _ClassVar[str] = "itcp_chased_result"
    mh: NodeId
    proxy_id: ProxyId
    request_id: RequestId
    payload: Any = None
