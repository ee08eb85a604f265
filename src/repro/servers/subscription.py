"""Server-side subscription registry.

RDP "may as well be used for implementing the operation subscribe"
(Section 3): the subscribe request stays pending at the proxy — keeping
the proxy alive — and each server push travels as a notification through
the proxy with full RDP reliability (store, forward, retransmit, ack).

This registry is the server-side half: it remembers which proxy to push
to for each open subscription and numbers the notifications.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.protocol import NotificationMsg, SubscriptionEndMsg
from ..net.wired import WiredNetwork
from ..types import NodeId, ProxyRef, RequestId


@dataclass
class SubscriptionEntry:
    """One open subscription."""

    subscription_id: RequestId
    proxy: ProxyRef
    params: Dict[str, Any] = field(default_factory=dict)
    seq: int = 0
    notified_payloads: List[Any] = field(default_factory=list)
    last_value: Optional[float] = None


class SubscriptionRegistry:
    """Open subscriptions of one server, with notification plumbing."""

    def __init__(self, server_node: NodeId, wired: WiredNetwork) -> None:
        self.server_node = server_node
        self.wired = wired
        self.entries: Dict[RequestId, SubscriptionEntry] = {}

    def open(self, subscription_id: RequestId, proxy: ProxyRef,
             params: Optional[Dict[str, Any]] = None) -> SubscriptionEntry:
        entry = SubscriptionEntry(subscription_id=subscription_id, proxy=proxy,
                                  params=dict(params or {}))
        self.entries[subscription_id] = entry
        return entry

    def notify(self, subscription_id: RequestId, payload: Any) -> bool:
        """Push one notification; False when the subscription is unknown."""
        entry = self.entries.get(subscription_id)
        if entry is None:
            return False
        entry.seq += 1
        entry.notified_payloads.append(payload)
        self.wired.send(self.server_node, entry.proxy.mss, NotificationMsg(
            subscription_id=subscription_id,
            proxy_id=entry.proxy.proxy_id,
            seq=entry.seq,
            payload=payload,
        ))
        return True

    def close(self, subscription_id: RequestId, payload: Any = None) -> bool:
        """End a subscription; completes the original subscribe request."""
        entry = self.entries.pop(subscription_id, None)
        if entry is None:
            return False
        self.wired.send(self.server_node, entry.proxy.mss, SubscriptionEndMsg(
            subscription_id=subscription_id,
            proxy_id=entry.proxy.proxy_id,
            payload=payload,
        ))
        return True

    def __len__(self) -> int:
        return len(self.entries)
