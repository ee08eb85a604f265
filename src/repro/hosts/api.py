"""User-facing client API on top of a mobile host.

:class:`RdpClient` is what an application running on the MH uses: issue
requests, await results, open subscriptions.  It demultiplexes incoming
results by request id (subscription notifications carry ids of the form
``<subscription>#n<seq>`` and are routed back to their subscription).

Optionally the client retries requests on a timer until the first result
arrives — the complementary "reliable request sending" role the paper
attributes to systems like Rover's QRPC (Section 4); the proxy
deduplicates by request id, so retries are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import ProtocolError
from ..sim.process import Retrier, retry_policy
from ..types import RequestId
from .mobile_host import MobileHost


@dataclass
class PendingRequest:
    """Handle for one issued request."""

    request_id: RequestId
    service: str
    payload: Any
    issued_at: float
    results: List[Any] = field(default_factory=list)
    completed_at: Optional[float] = None
    callbacks: List[Callable[[Any], None]] = field(default_factory=list)

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def result(self) -> Any:
        if not self.results:
            raise ProtocolError(f"request {self.request_id} has no result yet")
        return self.results[0]

    @property
    def latency(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.issued_at


@dataclass
class Subscription:
    """Handle for one open subscription."""

    request_id: RequestId
    service: str
    payload: Any
    issued_at: float
    notifications: List[Any] = field(default_factory=list)
    ended_at: Optional[float] = None
    end_payload: Any = None
    callbacks: List[Callable[[Any], None]] = field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.ended_at is None


class RdpClient:
    """Application-level API over one :class:`MobileHost`."""

    def __init__(self, host: MobileHost,
                 retry_interval: Optional[float] = None) -> None:
        self.host = host
        self.requests: Dict[RequestId, PendingRequest] = {}
        self.subscriptions: Dict[RequestId, Subscription] = {}
        # Per-request retries at the fixed retry_interval, forever.
        self._retries = Retrier(self.host.sim, retry_policy(retry_interval),
                                self._retry, "client:retry")
        host.result_listeners.append(self._on_result)

    # -- issuing ----------------------------------------------------------------

    def request(self, service: str, payload: Any = None,
                on_result: Optional[Callable[[Any], None]] = None) -> PendingRequest:
        """Issue a request; the result arrives asynchronously."""
        rid = self.host.send_request(service, payload)
        pending = PendingRequest(request_id=rid, service=service, payload=payload,
                                 issued_at=self.host.sim.now)
        if on_result is not None:
            pending.callbacks.append(on_result)
        self.requests[rid] = pending
        self._retries.arm(rid)
        return pending

    def subscribe(self, service: str, params: Optional[dict] = None,
                  on_notify: Optional[Callable[[Any], None]] = None) -> Subscription:
        """Open a subscription (payload carries ``subscribe: True``)."""
        payload = dict(params or {})
        payload["subscribe"] = True
        rid = self.host.send_request(service, payload)
        sub = Subscription(request_id=rid, service=service, payload=payload,
                           issued_at=self.host.sim.now)
        if on_notify is not None:
            sub.callbacks.append(on_notify)
        self.subscriptions[rid] = sub
        return sub

    def _retry(self, rid: RequestId, _attempt: int) -> bool:
        pending = self.requests.get(rid)
        if pending is None or pending.done:
            return False
        self.host.resend_request(rid, pending.service, pending.payload)
        return True

    # -- demultiplexing ------------------------------------------------------------

    def _on_result(self, request_id: RequestId, payload: Any) -> None:
        base, _, suffix = str(request_id).partition("#n")
        if suffix:
            sub = self.subscriptions.get(RequestId(base))
            if sub is not None:
                sub.notifications.append(payload)
                for callback in list(sub.callbacks):
                    callback(payload)
            return
        sub = self.subscriptions.get(request_id)
        if sub is not None:
            # The subscription's own request id completing means the
            # server closed it.
            sub.ended_at = self.host.sim.now
            sub.end_payload = payload
            return
        pending = self.requests.get(request_id)
        if pending is None:
            return
        pending.results.append(payload)
        if pending.completed_at is None:
            pending.completed_at = self.host.sim.now
            self._retries.cancel(request_id)
            for callback in list(pending.callbacks):
                callback(payload)

    def cancel_retries(self) -> None:
        """Stop all retry timers (e.g. when a harness winds a run down)."""
        self._retries.cancel_all()

    # -- observation ------------------------------------------------------------------

    @property
    def outstanding(self) -> List[PendingRequest]:
        return [p for p in self.requests.values() if not p.done]

    @property
    def completed(self) -> List[PendingRequest]:
        return [p for p in self.requests.values() if p.done]

    def latencies(self) -> List[float]:
        return [p.latency for p in self.requests.values() if p.latency is not None]
