"""RDP protocol messages.

Message vocabulary, following Section 3 of the paper:

Wireless uplink (mobile host -> its respMss):

* ``join`` / ``leave``     — enter / exit the system (Section 2)
* ``greet``                — cell entry or reactivation, carries ``old_mss``
* ``request``              — a new service request
* ``ack``                  — acknowledges one delivered result

Wireless downlink (respMss -> mobile host):

* ``registered``           — registration/hand-off completed (implementation
  detail: the paper abstracts how an MH learns its registration took
  effect; this message makes greet retransmission terminate under lossy
  wireless and costs nothing when the radio is reliable)
* ``wireless_result``      — a forwarded result (single attempt, no retry)

Wired, MSS <-> MSS:

* ``dereg`` / ``deregack`` — the Hand-off protocol (Section 3.2);
  ``deregack`` carries the proxy reference (*pref*)
* ``update_currentloc``    — new respMss tells the proxy where the MH is
* ``forwarded_request``    — respMss forwards a client request to the proxy
* ``result_forward``       — proxy forwards a result toward the MH
  (piggy-backs the ``del_pref`` flag, Section 3.3)
* ``del_pref_notice``      — the special message carrying only
  ``del-pref = true`` (Figure 4)
* ``ack_forward``          — respMss forwards an MH Ack to the proxy
  (piggy-backs the ``del_proxy`` flag)

Wired, proxy <-> application server:

* ``server_request`` / ``server_result`` — ordinary request/reply; from
  the server's perspective the proxy is a static client
* ``server_ack``           — optional application-level acknowledgment
* ``notification``         — server-initiated result pushed through an
  open subscription (Section 3: RDP "can be used as well for
  asynchronous notifications of events")
* ``subscription_end``     — the server closes a subscription, completing
  the original subscribe request
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Optional

from ..net.message import Message
from ..types import NodeId, ProxyId, ProxyRef, RequestId


# --------------------------------------------------------------------------
# Wireless uplink (MH -> MSS)
# --------------------------------------------------------------------------

@dataclass(slots=True, kw_only=True)
class JoinMsg(Message):
    kind: ClassVar[str] = "join"
    mh: NodeId
    seq: int = 0


@dataclass(slots=True, kw_only=True)
class LeaveMsg(Message):
    kind: ClassVar[str] = "leave"
    mh: NodeId


@dataclass(slots=True, kw_only=True)
class GreetMsg(Message):
    """Sent on entering a new cell or on reactivation (Section 3.2).

    ``old_mss`` is the MSS responsible for the cell the MH is leaving; when
    it equals the receiving MSS this is a reactivation and no hand-off runs.

    ``seq`` is the MH's registration incarnation number, incremented for
    every new announcement (not for retransmissions of the same one).  The
    paper abstracts from registration races; the incarnation number is how
    this implementation rejects *stale* hand-off transactions when an MH
    bounces between cells faster than hand-offs complete (e.g. A->B->A),
    so the pref always stays on the chain of custody.
    """

    kind: ClassVar[str] = "greet"
    mh: NodeId
    old_mss: NodeId
    seq: int = 0
    # Fallback custody candidates (the MH's last *confirmed* respMss).
    # Under lossy wireless the MH's announcement pointer can name a
    # station that never received the greet; the true owner is then the
    # last station that confirmed a registration.  The acquiring MSS
    # retries its dereg against these before giving up.
    old_candidates: tuple = ()

    def describe(self) -> str:
        return f"greet(old={self.old_mss},#{self.seq})"


@dataclass(slots=True, kw_only=True)
class RequestMsg(Message):
    kind: ClassVar[str] = "request"
    request_field = "request_id"
    mh: NodeId
    request_id: RequestId
    service: str
    payload: Any = None

    def describe(self) -> str:
        return f"request({self.request_id})"


def is_subscription(payload: Any) -> bool:
    """A request payload that opens a subscription (``subscribe: True``)."""
    return isinstance(payload, dict) and payload.get("subscribe") is True


@dataclass(slots=True, kw_only=True)
class AckMsg(Message):
    """MH acknowledges the reception of one result."""

    kind: ClassVar[str] = "ack"
    request_field = "request_id"
    mh: NodeId
    request_id: RequestId
    delivery_id: int

    def describe(self) -> str:
        return f"ack({self.request_id})"


# --------------------------------------------------------------------------
# Wireless downlink (MSS -> MH)
# --------------------------------------------------------------------------

@dataclass(slots=True, kw_only=True)
class RegisteredMsg(Message):
    kind: ClassVar[str] = "registered"
    mh: NodeId
    seq: int = 0


@dataclass(slots=True, kw_only=True)
class ReRegisterMsg(Message):
    """MSS -> MH: "I don't know you — register again".

    Beyond the paper (which assumes MSSs never fail, Section 2): after an
    MSS crash/restart its registration state is gone while local MHs
    still believe they are registered.  This nack makes the MH start a
    fresh registration incarnation.  It is only sent when the MSS has no
    evidence the MH is mid-hand-off.
    """

    kind: ClassVar[str] = "reregister"
    mh: NodeId


@dataclass(slots=True, kw_only=True)
class WirelessResultMsg(Message):
    """One delivery attempt of a result to the MH.

    ``delivery_id`` is stable across retransmissions of the same logical
    result so the MH can detect duplicates (assumption 5).
    """

    kind: ClassVar[str] = "wireless_result"
    request_field = "request_id"
    mh: NodeId
    request_id: RequestId
    delivery_id: int
    payload: Any = None

    def describe(self) -> str:
        return f"result({self.request_id})"


# --------------------------------------------------------------------------
# Wired: hand-off and location update (MSS <-> MSS, MSS -> proxy host)
# --------------------------------------------------------------------------

@dataclass(slots=True, kw_only=True)
class PrefPayload:
    """The proxy reference handed over between MSSs.

    Exactly what the paper puts in *pref*: the proxy's address (or null)
    and the Ready-to-Kill-pref flag.
    """

    ref: Optional[ProxyRef] = None
    rkpr: bool = False


@dataclass(slots=True, kw_only=True)
class DeregMsg(Message):
    """Hand-off: asks the old MSS to de-register the MH and surrender the
    pref.  ``seq`` echoes the greet that triggered this hand-off so the
    old MSS can reject transactions made stale by a newer registration."""

    kind: ClassVar[str] = "dereg"
    mh: NodeId
    seq: int = 0

    def describe(self) -> str:
        return f"dereg({self.mh},#{self.seq})"


@dataclass(slots=True, kw_only=True)
class DeregAckMsg(Message):
    """Hand-off reply.  ``found`` is False when the addressed MSS does not
    (any longer / yet) own the MH's state — the requester must abort its
    acquisition instead of installing an empty pref."""

    kind: ClassVar[str] = "deregack"
    mh: NodeId
    seq: int = 0
    found: bool = True
    pref: PrefPayload = field(default_factory=PrefPayload)
    # Baselines that transfer more than the pref (e.g. the I-TCP-style
    # full result store) ride here; RDP itself always leaves this empty,
    # which is exactly the hand-off minimality claim of Section 5.
    extra_state: Any = None
    extra_state_bytes: int = 0

    def describe(self) -> str:
        return f"deregack({self.mh})"

    def size_bytes(self) -> int:
        # Explicit base call: zero-arg super() breaks under the
        # slots=True dataclass rebuild.
        return Message.size_bytes(self) + self.extra_state_bytes


@dataclass(slots=True, kw_only=True)
class UpdateCurrentLocMsg(Message):
    kind: ClassVar[str] = "update_currentloc"
    mh: NodeId
    proxy_id: ProxyId
    new_mss: NodeId

    def describe(self) -> str:
        return f"update_currl({self.mh}->{self.new_mss})"


@dataclass(slots=True, kw_only=True)
class ForwardedRequestMsg(Message):
    kind: ClassVar[str] = "forwarded_request"
    request_field = "request_id"
    mh: NodeId
    proxy_id: ProxyId
    request_id: RequestId
    service: str
    payload: Any = None

    def describe(self) -> str:
        return f"fwd_request({self.request_id})"


@dataclass(slots=True, kw_only=True)
class ResultForwardMsg(Message):
    """Proxy -> respMss: deliver this result to the MH.

    ``del_pref`` is the piggy-backed flag of Section 3.3: true when this is
    the result of the proxy's last pending request. ``proxy_ref`` lets the
    respMss route the Ack back (the paper keeps it in *pref*; carrying it
    here additionally lets a respMss rebuild a lost pref defensively).
    """

    kind: ClassVar[str] = "result_forward"
    request_field = "request_id"
    mh: NodeId
    proxy_ref: ProxyRef
    request_id: RequestId
    delivery_id: int
    payload: Any = None
    del_pref: bool = False
    retransmission: bool = False

    def describe(self) -> str:
        suffix = " del-pref" if self.del_pref else ""
        retr = " retr" if self.retransmission else ""
        return f"fwd_result({self.request_id}{suffix}{retr})"


@dataclass(slots=True, kw_only=True)
class DelPrefNoticeMsg(Message):
    """The special message containing only del-pref = true (Figure 4)."""

    kind: ClassVar[str] = "del_pref_notice"
    mh: NodeId
    proxy_ref: ProxyRef

    def describe(self) -> str:
        return "del-pref"


@dataclass(slots=True, kw_only=True)
class AckForwardMsg(Message):
    """respMss -> proxy: the MH acknowledged ``request_id``.

    ``del_proxy`` is the piggy-backed flag of Section 3.3: true when the
    respMss confirmed the proxy's removal (RKpR held and no result remained
    outstanding at the respMss).
    """

    kind: ClassVar[str] = "ack_forward"
    request_field = "request_id"
    mh: NodeId
    proxy_id: ProxyId
    request_id: RequestId
    delivery_id: int
    del_proxy: bool = False

    def describe(self) -> str:
        suffix = " del-proxy" if self.del_proxy else ""
        return f"fwd_ack({self.request_id}{suffix})"


@dataclass(slots=True, kw_only=True)
class DelProxyConfirmMsg(Message):
    """respMss -> proxy: removal confirmed outside the Ack stream.

    Normally del-proxy piggybacks on the next forwarded Ack (Section
    3.3), but when the Figure-4 special message loses a race against the
    final Ack (fault-induced reordering), RKpR becomes true with nothing
    outstanding and no further Ack to carry the flag — the proxy would
    idle forever.  This explicit confirmation closes the handshake.
    """

    kind: ClassVar[str] = "del_proxy_confirm"
    mh: NodeId
    proxy_id: ProxyId

    def describe(self) -> str:
        return f"del_proxy_confirm({self.mh})"


@dataclass(slots=True, kw_only=True)
class ResultBounceMsg(Message):
    """respMss -> proxy: a forwarded result arrived for an MH not here.

    Robustness extension beyond the paper: normally a stale forward is
    healed by the next ``update_currentloc``-triggered retransmission, but
    an MSS crash can destroy the pref whose location update the proxy is
    waiting for — leaving an orphaned proxy holding an unacknowledged
    result forever.  Bouncing the forward back lets the proxy re-send on
    its own (bounded-backoff) schedule until the MH re-registers
    somewhere the forward can reach it.
    """

    kind: ClassVar[str] = "result_bounce"
    request_field = "request_id"
    mh: NodeId
    proxy_id: ProxyId
    request_id: RequestId

    def describe(self) -> str:
        return f"result_bounce({self.request_id})"


@dataclass(slots=True, kw_only=True)
class MhLocateMsg(Message):
    """proxyMss -> all MSSs: page for an MH whose location was lost.

    Robustness extension beyond the paper: when a bounced result keeps
    bouncing (see :class:`ResultBounceMsg`), the proxy's ``currentloc``
    is stale and — because the crash also wiped the pref — no
    ``update_currentloc`` will ever correct it.  The hosting MSS pages
    every station; the one currently hosting the MH answers with the
    ordinary :class:`UpdateCurrentLocMsg`, after which the normal
    re-forward/ack machinery takes over.
    """

    kind: ClassVar[str] = "mh_locate"
    mh: NodeId
    proxy_ref: ProxyRef

    def describe(self) -> str:
        return f"mh_locate({self.mh})"


@dataclass(slots=True, kw_only=True)
class CreateProxyMsg(Message):
    """respMss asks another MSS to host a new proxy (placement policies).

    The paper always creates the proxy at the respMss; the ``least_loaded``
    and ``home`` placement policies (Section 3.3's load-balancing
    discussion, and the Mobile-IP baseline) need remote creation.  The
    triggering request rides along so no round trip is wasted.
    """

    kind: ClassVar[str] = "create_proxy"
    mh: NodeId
    resp_mss: NodeId
    request_id: RequestId
    service: str
    payload: Any = None


@dataclass(slots=True, kw_only=True)
class ProxyGoneMsg(Message):
    """A forwarded request reached an MSS whose proxy no longer exists.

    Robustness extension beyond the paper: custody races can leave a pref
    referencing a proxy that already completed its del-proxy handshake.
    The hosting MSS bounces the request back so the respMss can clear the
    dangling reference and re-create a proxy.
    """

    kind: ClassVar[str] = "proxy_gone"
    mh: NodeId
    proxy_id: ProxyId
    request_id: RequestId
    service: str
    payload: Any = None

    def describe(self) -> str:
        return f"proxy_gone({self.mh})"


@dataclass(slots=True, kw_only=True)
class ProxyCreatedMsg(Message):
    """Reply to :class:`CreateProxyMsg`, carrying the new proxy's ref."""

    kind: ClassVar[str] = "proxy_created"
    mh: NodeId
    ref: ProxyRef


@dataclass(slots=True, kw_only=True)
class ProxyMigrateRequestMsg(Message):
    """respMss -> proxy host: move the proxy here (future-work extension).

    The paper's proxy never moves once created; for long-lived request
    series (subscriptions) of a far-roaming MH this accrues a permanent
    detour (cf. experiment AN11).  The initiating respMss picks the new
    proxy id up front so the old host can install a forwarding stub
    before any state is in flight.
    """

    kind: ClassVar[str] = "proxy_migrate_request"
    mh: NodeId
    proxy_id: ProxyId
    new_proxy_id: ProxyId

    def describe(self) -> str:
        return f"proxy_migrate({self.mh})"


@dataclass(slots=True, kw_only=True)
class ProxyMoveMsg(Message):
    """Old proxy host -> new host: the serialized proxy state."""

    kind: ClassVar[str] = "proxy_move"
    mh: NodeId
    new_proxy_id: ProxyId
    state: Any = None
    state_bytes: int = 0

    def describe(self) -> str:
        return f"proxy_move({self.mh})"

    def size_bytes(self) -> int:
        return Message.size_bytes(self) + self.state_bytes


@dataclass(slots=True, kw_only=True)
class SubscriptionRelocateMsg(Message):
    """New proxy host -> server: push this subscription's notifications
    to the proxy's new address from now on."""

    kind: ClassVar[str] = "subscription_relocate"
    subscription_id: RequestId
    new_ref: Optional[ProxyRef] = None

    def describe(self) -> str:
        return f"sub_relocate({self.subscription_id})"


# --------------------------------------------------------------------------
# Wired: proxy <-> application server
# --------------------------------------------------------------------------

@dataclass(slots=True, kw_only=True)
class ServerRequestMsg(Message):
    kind: ClassVar[str] = "server_request"
    request_field = "request_id"
    request_id: RequestId
    service: str
    payload: Any = None
    reply_to: Optional[ProxyRef] = None

    def describe(self) -> str:
        return f"srv_request({self.request_id})"


@dataclass(slots=True, kw_only=True)
class ServerResultMsg(Message):
    kind: ClassVar[str] = "server_result"
    request_field = "request_id"
    request_id: RequestId
    proxy_id: ProxyId
    payload: Any = None

    def describe(self) -> str:
        return f"srv_result({self.request_id})"


@dataclass(slots=True, kw_only=True)
class ServerAckMsg(Message):
    """Optional application-level ack from proxy back to the server."""

    kind: ClassVar[str] = "server_ack"
    request_field = "request_id"
    request_id: RequestId


@dataclass(slots=True, kw_only=True)
class NotificationMsg(Message):
    """Server-initiated event pushed through an open subscription.

    ``subscription_id`` is the request id of the original subscribe
    request; ``seq`` distinguishes successive notifications.
    """

    kind: ClassVar[str] = "notification"
    request_field = "subscription_id"
    subscription_id: RequestId
    proxy_id: ProxyId
    seq: int
    payload: Any = None

    def describe(self) -> str:
        return f"notify({self.subscription_id}#{self.seq})"


@dataclass(slots=True, kw_only=True)
class SubscriptionEndMsg(Message):
    """Server closes a subscription; completes the subscribe request."""

    kind: ClassVar[str] = "subscription_end"
    request_field = "subscription_id"
    subscription_id: RequestId
    proxy_id: ProxyId
    payload: Any = None

    def describe(self) -> str:
        return f"sub_end({self.subscription_id})"
