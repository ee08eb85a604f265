"""Totally-ordered group multicast.

The SIDAM project pairs RDP with "a protocol for atomic multicast among
mobile hosts" (the paper's reference [7] and the suite of protocols of
Section 1).  This module implements the result-delivery half of such a
protocol on top of RDP:

* the :class:`OrderedGroupServer` is the group's *sequencer*: every
  multicast receives a per-group, gap-free sequence number and is pushed
  to each member through its RDP proxy (so delivery is reliable across
  migrations and sleep);
* the client-side :class:`OrderedMembership` holds back out-of-order
  notifications and releases them strictly in sequence — RDP guarantees
  every gap eventually fills, so hold-back cannot deadlock.

Together: every member observes every multicast exactly once, in the
same total order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from ..core.protocol import ServerRequestMsg
from ..hosts.api import RdpClient, Subscription
from ..types import RequestId
from .base import AppServer
from .subscription import SubscriptionRegistry


class OrderedGroupServer(AppServer):
    """Group membership plus sequenced, reliable fan-out.

    Request payloads:

    * ``{"subscribe": True, "group": g}`` — join (the membership is an
      open subscription; the confirmation rides as sequence number 0 of
      the member's own stream)
    * ``{"op": "omcast", "group": g, "data": d}`` — sequenced multicast;
      the sender's result reports the assigned sequence number
    * ``{"op": "leave", "group": g, "member": membership_request_id}``
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.subs = SubscriptionRegistry(self.node_id, self.wired)
        self.groups: Dict[str, Set[RequestId]] = {}
        self.group_seq: Dict[str, int] = {}
        self.history: Dict[str, List[Any]] = {}

    def _complete(self, message: ServerRequestMsg) -> None:
        payload = message.payload if isinstance(message.payload, dict) else {}
        if payload.get("subscribe") is True:
            self._join(message, payload)
            return
        op = payload.get("op")
        if op == "omcast":
            self._omcast(message, payload)
        elif op == "leave":
            self._leave(message, payload)
        else:
            self.reply(message, {"error": f"unknown ordered-group op {op!r}"})

    def _join(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        group = str(payload.get("group", "default"))
        assert message.reply_to is not None
        self.subs.open(message.request_id, message.reply_to,
                       params={"group": group})
        self.groups.setdefault(group, set()).add(message.request_id)
        self.group_seq.setdefault(group, 0)
        self.instr.metrics.incr("ogroup_joins", node=self.node_id)
        # Late joiners get the full history so their sequence is complete
        # from the group's genesis — every member sees the same stream.
        joined_at = self.group_seq[group]
        self.subs.notify(message.request_id, {
            "group": group, "gseq": 0, "joined": True,
            "history": list(self.history.get(group, ())),
            "joined_at": joined_at,
        })

    def _omcast(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        group = str(payload.get("group", "default"))
        data = payload.get("data")
        members = self.groups.get(group, set())
        self.group_seq.setdefault(group, 0)
        self.group_seq[group] += 1
        gseq = self.group_seq[group]
        self.history.setdefault(group, []).append(data)
        delivered = 0
        for member_id in sorted(members):
            if self.subs.notify(member_id, {"group": group, "gseq": gseq,
                                            "data": data}):
                delivered += 1
        self.instr.metrics.incr("ogroup_mcasts", node=self.node_id)
        self.reply(message, {"ok": True, "group": group, "gseq": gseq,
                             "members": delivered})

    def _leave(self, message: ServerRequestMsg, payload: Dict[str, Any]) -> None:
        group = str(payload.get("group", "default"))
        member = RequestId(str(payload.get("member", "")))
        members = self.groups.get(group, set())
        left = member in members
        if left:
            members.discard(member)
            self.subs.close(member, {"left": group})
        self.reply(message, {"ok": left, "group": group})


@dataclass
class OrderedMembership:
    """Client-side hold-back delivery of one group membership."""

    subscription: Subscription
    group: str
    delivered: List[Any] = field(default_factory=list)
    listeners: List[Callable[[Any], None]] = field(default_factory=list)
    _next_seq: int = 1
    _holdback: Dict[int, Any] = field(default_factory=dict)
    _joined: bool = False

    def _on_notification(self, payload: Any) -> None:
        if not isinstance(payload, dict) or "gseq" not in payload:
            return
        gseq = int(payload["gseq"])
        if gseq == 0:
            # Join confirmation: adopt the history, start after it.
            if not self._joined:
                self._joined = True
                for item in payload.get("history", ()):  # genesis catch-up
                    self._deliver(item)
                self._next_seq = int(payload.get("joined_at", 0)) + 1
                self._drain()
            return
        if gseq < self._next_seq or gseq in self._holdback:
            return  # duplicate transmission
        self._holdback[gseq] = payload.get("data")
        self._drain()

    def _drain(self) -> None:
        while self._next_seq in self._holdback:
            self._deliver(self._holdback.pop(self._next_seq))
            self._next_seq += 1

    def _deliver(self, data: Any) -> None:
        self.delivered.append(data)
        for listener in list(self.listeners):
            listener(data)

    @property
    def holdback_depth(self) -> int:
        return len(self._holdback)


def join_ordered_group(client: RdpClient, service: str, group: str,
                       on_deliver: Optional[Callable[[Any], None]] = None
                       ) -> OrderedMembership:
    """Join *group* on the ordered-multicast *service*."""
    subscription = client.subscribe(service, {"group": group})
    membership = OrderedMembership(subscription=subscription, group=group)
    if on_deliver is not None:
        membership.listeners.append(on_deliver)
    subscription.callbacks.append(membership._on_notification)
    return membership


def leave_ordered_group(client: RdpClient, service: str,
                        membership: OrderedMembership):
    """Leave the group (completes the membership subscription)."""
    return client.request(service, {
        "op": "leave", "group": membership.group,
        "member": str(membership.subscription.request_id),
    })
