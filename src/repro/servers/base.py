"""Application server base class.

From the server's perspective RDP is invisible: requests arrive from a
static client (the proxy) and the reply goes back to the request's
``reply_to`` address (paper, Section 3: "from the perspective of the
server, service access is identical to the one by a static client").

Servers are static hosts with fixed addresses registered in the directory
service; request processing takes a configurable service time — the "long
request processing time" regime is what makes RDP necessary.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.protocol import (
    ServerAckMsg,
    ServerRequestMsg,
    ServerResultMsg,
    SubscriptionRelocateMsg,
)
from ..instruments import Instruments
from ..net.directory import DirectoryService
from ..net.latency import ConstantLatency, LatencyModel
from ..net.message import Message
from ..net.wired import WiredNetwork
from ..engine import Engine
from ..types import server_id


class AppServer:
    """A request/reply application server (echo semantics by default)."""

    def __init__(
        self,
        sim: Engine,
        name: str,
        wired: WiredNetwork,
        directory: DirectoryService,
        service: Optional[str] = None,
        service_time: Optional[LatencyModel] = None,
        instruments: Optional[Instruments] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.node_id = server_id(name)
        self.wired = wired
        self.directory = directory
        self.service = service or name
        self.service_time = service_time or ConstantLatency(0.050)
        self.instr = instruments or Instruments.disabled()
        self.requests_served = 0
        self.acks_received = 0
        wired.attach(self)
        directory.register(self.service, self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Server {self.name} service={self.service}>"

    def on_wired_message(self, message: Message) -> None:
        if isinstance(message, ServerRequestMsg):
            self.instr.metrics.incr("server_requests", node=self.node_id)
            self.sim.schedule(self.service_time.sample(self.wired.rng),
                              self._complete, message, label="server:work")
        elif isinstance(message, ServerAckMsg):
            self.acks_received += 1
            self.instr.metrics.incr("server_acks_received", node=self.node_id)
        elif isinstance(message, SubscriptionRelocateMsg):
            self._relocate_subscription(message)
        else:
            self.handle_other(message)

    def handle_other(self, message: Message) -> None:
        """Hook for subclasses with extra message types (TIS overlay);
        the base server has none and ignores the message."""

    def _relocate_subscription(self, message: SubscriptionRelocateMsg) -> None:
        """A migrated proxy announces its new address for an open
        subscription.  Works for any subclass exposing a ``subs``
        :class:`~repro.servers.subscription.SubscriptionRegistry`."""
        registry = getattr(self, "subs", None)
        entry = (registry.entries.get(message.subscription_id)
                 if registry is not None else None)
        if entry is None or message.new_ref is None:
            self.instr.metrics.incr("subscription_relocate_misses",
                                    node=self.node_id)
            return
        entry.proxy = message.new_ref
        self.instr.metrics.incr("subscriptions_relocated", node=self.node_id)

    def _complete(self, message: ServerRequestMsg) -> None:
        result = self.handle_request(message.payload)
        self.requests_served += 1
        self.reply(message, result)

    def reply(self, message: ServerRequestMsg, result: Any) -> None:
        """Send the result back to the proxy named in ``reply_to``."""
        if message.reply_to is None:
            self.instr.metrics.incr("server_replies_dropped", node=self.node_id)
            return
        self.wired.send(self.node_id, message.reply_to.mss, ServerResultMsg(
            request_id=message.request_id,
            proxy_id=message.reply_to.proxy_id,
            payload=result,
        ))

    def handle_request(self, payload: Any) -> Any:
        """Compute the reply; default echoes the payload."""
        return payload
