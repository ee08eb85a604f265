"""Best-effort direct delivery (no proxy) — the negative baseline.

Requests go straight from the respMss to the server; the reply comes back
to whichever MSS issued the request and is downlinked once.  If the MH
migrated or turned inactive in the meantime the result is simply lost —
exactly the unreliability RDP exists to fix.  Experiment AN1 contrasts
the two delivery ratios.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.protocol import (
    AckMsg,
    RequestMsg,
    ServerRequestMsg,
    ServerResultMsg,
    WirelessResultMsg,
)
from ..stations.mss import MobileSupportStation
from ..types import NodeId, ProxyId, ProxyRef, RequestId

_PSEUDO_PROXY = ProxyId("direct")


class DirectDeliveryMss(MobileSupportStation):
    """MSS variant without proxies: fire-and-forget result delivery."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._request_owner: Dict[RequestId, NodeId] = {}

    def _on_request(self, msg: RequestMsg) -> None:
        if self.pref_of(msg.mh) is None:
            self.instr.metrics.incr("requests_from_unregistered", node=self.node_id)
            return
        self.instr.metrics.incr("requests_accepted", node=self.node_id)
        server = self.resolve_service(msg.service)
        if server is None:
            self.instr.metrics.incr("requests_unresolvable", node=self.node_id)
            return
        self._request_owner[msg.request_id] = msg.mh
        self._wired_send(server, ServerRequestMsg(
            request_id=msg.request_id, service=msg.service,
            payload=msg.payload,
            reply_to=ProxyRef(mss=self.node_id, proxy_id=_PSEUDO_PROXY)))

    def _on_proxy_bound(self, msg: Any) -> None:
        if not isinstance(msg, ServerResultMsg):
            self.instr.metrics.incr("mss_unhandled_messages", node=self.node_id)
            return
        mh = self._request_owner.pop(msg.request_id, None)
        if mh is None or self.pref_of(mh) is None:
            # The MH is gone; with no proxy there is no recovery.
            self.instr.metrics.incr("direct_results_lost", node=self.node_id)
            return
        self._downlink(mh, WirelessResultMsg(
            mh=mh, request_id=msg.request_id,
            delivery_id=self.sim.ids.delivery(), payload=msg.payload))
        self.instr.metrics.incr("results_forwarded_to_mh", node=self.node_id)

    def _on_ack(self, msg: AckMsg) -> None:
        # Nothing retransmits, so Acks are pure overhead here.
        self.instr.metrics.incr("direct_acks_ignored", node=self.node_id)
