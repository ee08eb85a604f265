"""Queued RPC: reliable *request sending* for disconnected operation.

The paper (Section 4) positions Rover's QRPC as RDP's complement: "In
QRPC the actual sending of the RPC request is de-coupled from the QRPC
invocation and is performed as soon as the MH has established a good
communication link with a base station ... While the first guarantees
reliable sending of requests, RDP guarantees reliable result delivery."

:class:`QueuedRpcClient` implements that client-side half: ``request``
never fails — while the host is inactive or unregistered the request
waits in an outbox and is transmitted on the next (re-)registration.
Combined with the per-request retry of :class:`RdpClient` (the proxy
deduplicates by request id), the pair gives end-to-end reliability.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..types import MhState, RequestId
from .api import PendingRequest, RdpClient
from .mobile_host import MobileHost


class QueuedRpcClient(RdpClient):
    """An :class:`RdpClient` whose requests queue across disconnections."""

    def __init__(self, host: MobileHost,
                 retry_interval: Optional[float] = None) -> None:
        super().__init__(host, retry_interval=retry_interval)
        self._outbox: List[RequestId] = []
        host.registration_listeners.append(self._flush_outbox)

    def request(self, service: str, payload: Any = None,
                on_result: Optional[Callable[[Any], None]] = None) -> PendingRequest:
        """Issue a request; queue it if the host cannot transmit now."""
        if self.host.state is MhState.ACTIVE:
            return super().request(service, payload, on_result=on_result)
        rid = self.host.new_request_id()
        pending = PendingRequest(request_id=rid, service=service,
                                 payload=payload,
                                 issued_at=self.host.sim.now)
        if on_result is not None:
            pending.callbacks.append(on_result)
        self.requests[rid] = pending
        self._outbox.append(rid)
        self.host.instr.metrics.incr("qrpc_queued", node=self.host.node_id)
        return pending

    def _flush_outbox(self) -> None:
        queued, self._outbox = self._outbox, []
        for rid in queued:
            pending = self.requests.get(rid)
            if pending is None or pending.done:
                continue
            self.host.send_request(pending.service, pending.payload,
                                   request_id=rid)
            self.host.instr.metrics.incr("qrpc_flushed", node=self.host.node_id)
            self._retries.arm(rid, label="qrpc:retry")
