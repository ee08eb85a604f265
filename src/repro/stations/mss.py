"""The Mobile Support Station (MSS).

An MSS is a reliable static host that (paper, Sections 2-3):

* serves one cell and keeps one :class:`MhEntry` per MH it deals with —
  the paper's ``local Mhs`` are the entries holding a pref;
* holds one *pref* (proxy reference) per local MH;
* hosts proxy objects and routes proxy-addressed wired messages to them;
* runs the Hand-off protocol (greet / dereg / deregack) with its peers;
* forwards client requests to the MH's proxy (creating one when the pref
  is null), forwards results down the wireless link (one attempt only),
  and forwards MH Acks back to the proxy — Acks with priority over
  hand-off transactions;
* maintains the del-pref / RKpR / del-proxy flag machinery that governs
  the proxy life-cycle (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, Optional, Set, Tuple, Type

from ..core.placement import CurrentCellPlacement, PlacementPolicy
from ..core.protocol import (
    AckForwardMsg,
    AckMsg,
    CreateProxyMsg,
    DelPrefNoticeMsg,
    DeregAckMsg,
    DelProxyConfirmMsg,
    DeregMsg,
    ForwardedRequestMsg,
    GreetMsg,
    JoinMsg,
    LeaveMsg,
    NotificationMsg,
    PrefPayload,
    ProxyCreatedMsg,
    ProxyGoneMsg,
    ProxyMigrateRequestMsg,
    ProxyMoveMsg,
    RegisteredMsg,
    ReRegisterMsg,
    RequestMsg,
    MhLocateMsg,
    ResultBounceMsg,
    ResultForwardMsg,
    ServerResultMsg,
    SubscriptionEndMsg,
    UpdateCurrentLocMsg,
    WirelessResultMsg,
)
from ..core.proxy import Proxy
from ..errors import UnknownNodeError
from ..instruments import Instruments
from ..net.directory import DirectoryService
from ..net.message import Message
from ..net.wired import WiredNetwork
from ..net.wireless import WirelessChannel
from ..engine import Engine
from ..sim.process import Retrier, retry_policy
from ..types import (CellId, MhState, NodeId, ProxyId, ProxyRef, RequestId,
                     mss_id)
from .inbox import Inbox
from .pref import Pref

#: One dispatch-table entry: a bound method handling the concrete message
#: class keyed by the entry.  Each handler declares its precise subclass
#: (``def _on_join(self, msg: JoinMsg)``), so the table's common value
#: type must erase that parameter (Callable is contravariant in it) — the
#: ``type(message)`` lookup in :meth:`Mss._handle` restores the pairing
#: at runtime, and the RDP004 static pass checks each handler body
#: against its registered class.
MessageHandler = Callable[[Any], None]

#: With ``retain_results``, how long a reactivation's deferred
#: update_currentloc waits for the redelivered results' Acks before it
#: is sent anyway.
RETAIN_UPDATE_FALLBACK = 0.2
#: Attempt budget of the MSS-side wireless redelivery
#: (``wireless_ack_timeout``).
WIRELESS_REDELIVERY_ATTEMPTS = 6
#: How long a forwarding stub outlives the proxy that moved away.
STUB_TTL = 120.0
#: Hand-off liveness probe: re-send an unanswered dereg after this
#: long.  The wired network never loses messages, but a crashed peer
#: loses *deferred* deregs; the probe is what makes acquisitions live
#: across that (inert in failure-free runs — responses beat it).
HANDOFF_PROBE_INTERVAL = 5.0


@dataclass
class MssConfig:
    """Tunables of one MSS (shared by all MSSs of a world in practice)."""

    proc_delay: float = 0.0
    ack_priority: bool = True
    send_server_acks: bool = False
    persistent_proxies: bool = False
    placement: Optional[PlacementPolicy] = None
    # Paper Section 5, footnote 3: "if the MSS is able to detect that the
    # target MH is currently inactive, it may keep the message, save the
    # re-transmission by the proxy, and wait until the MH becomes active
    # again."  When enabled, results that miss an inactive local MH are
    # retained and redelivered on reactivation, and the reactivation's
    # update_currentloc is deferred (at most RETAIN_UPDATE_FALLBACK) so
    # the Acks reach the proxy first (causal order then suppresses the
    # wired retransmission).
    retain_results: bool = False
    # Proxy-side redelivery: re-forward an unacknowledged result after
    # this long (exponential backoff).  None keeps the paper's purely
    # event-driven proxy; fault-injected worlds enable it so a crashed
    # respMss cannot orphan a result forever (see core/proxy.py).
    proxy_ack_timeout: Optional[float] = None
    # MSS-side redelivery over the *wireless* leg: re-downlink a result
    # whose Ack has not come back after this long, with exponential
    # backoff capped at 4x and WIRELESS_REDELIVERY_ATTEMPTS — the respMss
    # covering radio fades locally instead of waiting out the proxy's
    # (much slower) end-to-end ack timeout.  None keeps the paper's
    # fire-and-forget downlink.
    wireless_ack_timeout: Optional[float] = None
    # Bound on proxy result custody: a held result older than this is
    # discarded with a custody_expired trace (see core/proxy.py).  None
    # keeps custody forever (the paper's unbounded result store).
    proxy_custody_ttl: Optional[float] = None
    # Proxy migration (future-work extension): when the MH's proxy sits
    # at least this many distance units away, the respMss pulls it over.
    # None disables (the paper's behaviour).  ``station_distance`` is
    # provided by the world (cell-map geometry).
    proxy_migrate_distance: Optional[float] = None
    station_distance: Optional[Callable[[NodeId, NodeId], float]] = None


@dataclass
class _IncomingHandoff:
    old_mss: NodeId = NodeId("")   # the current chase target
    started_at: float = 0.0
    seq: int = 0
    # Seqs of dereg requests sent and not yet answered.  The acquisition
    # is only abandoned once every one of them has been answered
    # negatively: ownership may be in flight toward us in a late
    # found=True deregack, and answering "not found" to a third party
    # while that is possible would strand the pref here forever.
    outstanding: Set[int] = field(default_factory=set)
    # Custody fallbacks (from the greet): stations to try when the
    # primary target answers "not found" — under lossy wireless the MH's
    # announcement pointer can name a station that never heard of it.
    fallbacks: tuple = ()
    # Reactivation-of-unknown acquisitions (the MH claims *we* are its
    # respMss): if nobody owns the state — e.g. we crashed and lost it —
    # register the MH fresh instead of abandoning it.
    register_on_failure: bool = False


class MhEntry:
    """What one station knows about one MH; kept until the station crashes.

    The fields overlap rather than encode one exclusive state (a join can
    register an MH mid-acquisition; a surrendered MH can be re-acquired):
    :func:`handoff_row` reads them to pick the row of docs/PROTOCOL.md §3
    that a hand-off message lands in."""

    __slots__ = ("pref", "reg_seq", "incoming", "surrendered", "migrating",
                 "deferred_deregs", "creation_queue", "retained",
                 "deferred_update", "failures")

    def __init__(self) -> None:
        # Local (registered here) exactly while there is a pref; reg_seq
        # is the registering greet/join's incarnation, -1 when not local.
        self.pref: Optional[Pref] = None
        self.reg_seq = -1
        self.incoming: Optional[_IncomingHandoff] = None  # our acquisition
        # Handed off since the last registration here: its Acks are dead.
        self.surrendered = False
        self.migrating = False  # a proxy migration we asked for is in flight
        # (requester, seq) deregs and requests waiting for our acquisition
        # or a remote proxy creation.
        self.deferred_deregs: Tuple[Tuple[NodeId, int], ...] = ()
        self.creation_queue: Tuple[RequestMsg, ...] = ()
        # Footnote-3 retention (None when empty) and the location update
        # held back until the retained results are acknowledged.
        self.retained: Optional[Dict[RequestId, WirelessResultMsg]] = None
        self.deferred_update: Optional[ProxyRef] = None
        # The seq of each failed custody chase since the last registration.
        self.failures: Tuple[int, ...] = ()


class Row(Enum):
    """The rows of docs/PROTOCOL.md §3's hand-off table, which states
    each row's condition and action.  ``counters`` is the row's
    ``Counted`` cell, bumped in that order; the value is the row's
    number, so rows with equal counters stay distinct members."""

    counters: Tuple[str, ...]

    def __new__(cls, *counters: str) -> "Row":
        row = object.__new__(cls)
        row._value_ = len(cls.__members__) + 1
        row.counters = counters
        return row

    GREET_DUPLICATE = ("duplicate_greets",)
    GREET_BOUNCE = ("bounce_re_registrations",)
    GREET_ACQUIRING_DUPLICATE = ("duplicate_greets",)
    GREET_RESTART = ("handoffs_restarted",)
    GREET_START = ("handoffs_started",)
    REACTIVATE_DUPLICATE = ("duplicate_greets",)
    REACTIVATE = ("reactivations",)
    REACTIVATE_ACQUIRING = ("reactivation_of_unknown_mh", "duplicate_greets")
    REACTIVATE_CHASE = ("reactivation_of_unknown_mh", "handoffs_started")
    REACTIVATE_IN_PLACE = ("reactivation_of_unknown_mh", "reactivations")
    JOIN_DUPLICATE = ()
    JOIN_NEWER = ()
    JOIN = ("mh_joins",)
    DEREG_STALE = ("stale_deregs_rejected",)
    DEREG_DEFER_CREATING = ("deregs_deferred",)
    DEREG_SURRENDER = ("handoffs_out",)
    DEREG_STALE_ACQUIRING = ("stale_deregs_rejected",)
    DEREG_DEFER_ACQUIRING = ("deregs_deferred",)
    DEREG_PROBE_DUPLICATE = ("dereg_probe_duplicates",)
    DEREG_UNKNOWN = ("deregs_for_unknown_mh",)
    NOT_FOUND_STALE = ("stale_deregacks",)
    NOT_FOUND_WAITING = ("deregack_negative_waiting",)
    NOT_FOUND_FALLBACK = ("handoff_fallback_deregs",)
    NOT_FOUND_SERVE = ("handoffs_aborted",)
    NOT_FOUND_BLIND = ("handoffs_aborted", "blind_re_registrations")
    NOT_FOUND_REFUSE = ("handoffs_aborted",)
    FOUND_LATE = ("late_deregacks_ignored",)
    FOUND_FORK = ("stale_custody_forks_dropped",)
    FOUND = ("handoffs_completed",)
    PROXY_CREATED = ()
    PROXY_CREATED_ABSENT = ("proxy_created_for_absent_mh",)
    ACK_IGNORED = ("acks_ignored_after_dereg",)
    ACK_ACQUIRING = ("acks_from_unknown_mh",)
    ACK_UNKNOWN = ("acks_from_unknown_mh",)
    ACK_FOREIGN = ("acks_forwarded",)
    ACK_NO_PROXY = ("acks_without_pref",)
    ACK_FORWARD = ("acks_forwarded",)
    PROBE = ("handoff_probes",)
    PROBE_END = ()
    DEFERRED_EXPIRED = ("deferred_deregs_expired",)
    DEFERRED_ANSWERED = ()


def _custody_candidates(msg: GreetMsg, here: NodeId) -> tuple:
    """The stations besides *here* and ``old_mss`` that may hold the MH."""
    return tuple(node for node in msg.old_candidates
                 if node != here and node != msg.old_mss)


def handoff_row(entry: Optional[MhEntry], msg: object, here: NodeId,
                in_cell: bool = False) -> Row:
    """The §3 row that *msg* lands in at station *here*, whose *entry*
    for the MH is None when it has none.  *msg* is a greet, join, dereg,
    deregack, proxy_created or ack, a deferred ``(requester, seq)`` dereg
    whose TTL ran out, or None for the hand-off probe.  *in_cell* is
    radio-level knowledge that the MH is in the cell."""
    local = entry is not None and entry.pref is not None
    record = entry.incoming if entry is not None else None
    if isinstance(msg, AckMsg):
        if entry is not None and entry.surrendered:
            return Row.ACK_IGNORED
        if not local:
            return Row.ACK_UNKNOWN if record is None else Row.ACK_ACQUIRING
        if msg.request_id in entry.pref.foreign:
            return Row.ACK_FOREIGN
        return Row.ACK_NO_PROXY if entry.pref.ref is None else Row.ACK_FORWARD
    if isinstance(msg, GreetMsg):  # a greet always makes an entry
        if msg.old_mss == here:
            if msg.seq <= entry.reg_seq:
                return Row.REACTIVATE_DUPLICATE
            if local:
                return Row.REACTIVATE
            if record is not None:
                return Row.REACTIVATE_ACQUIRING
            if _custody_candidates(msg, here):
                return Row.REACTIVATE_CHASE
            return Row.REACTIVATE_IN_PLACE
        if local:
            return (Row.GREET_DUPLICATE if msg.seq <= entry.reg_seq
                    else Row.GREET_BOUNCE)
        if record is None:
            return Row.GREET_START
        return (Row.GREET_ACQUIRING_DUPLICATE if msg.seq <= record.seq
                else Row.GREET_RESTART)
    if isinstance(msg, JoinMsg):
        if not local:
            return Row.JOIN
        return Row.JOIN_DUPLICATE if msg.seq <= entry.reg_seq else Row.JOIN_NEWER
    if isinstance(msg, DeregMsg):
        if local:
            if msg.seq <= entry.reg_seq:
                return Row.DEREG_STALE
            if not entry.pref.creating:
                return Row.DEREG_SURRENDER
            defer = Row.DEREG_DEFER_CREATING
        elif record is not None:
            if msg.seq <= record.seq:
                return Row.DEREG_STALE_ACQUIRING
            defer = Row.DEREG_DEFER_ACQUIRING
        else:
            return Row.DEREG_UNKNOWN
        if (msg.src, msg.seq) in entry.deferred_deregs:
            return Row.DEREG_PROBE_DUPLICATE
        return defer
    if isinstance(msg, DeregAckMsg):
        if msg.found:
            if local:
                return Row.FOUND_LATE
            return Row.FOUND_FORK if record is None else Row.FOUND
        if record is None:
            return Row.NOT_FOUND_STALE
        if not record.outstanding <= {msg.seq}:
            return Row.NOT_FOUND_WAITING
        if record.fallbacks:
            return Row.NOT_FOUND_FALLBACK
        if local:
            return Row.NOT_FOUND_SERVE
        if ((record.register_on_failure or record.seq in entry.failures)
                and in_cell):
            return Row.NOT_FOUND_BLIND
        return Row.NOT_FOUND_REFUSE
    if isinstance(msg, ProxyCreatedMsg):
        return Row.PROXY_CREATED if local else Row.PROXY_CREATED_ABSENT
    if isinstance(msg, tuple):
        if entry is not None and msg in entry.deferred_deregs:
            return Row.DEFERRED_EXPIRED
        return Row.DEFERRED_ANSWERED
    return Row.PROBE_END if record is None else Row.PROBE


class MobileSupportStation:
    """One cell's Mobile Support Station: per-MH state in ``entries``,
    per-proxy state in ``proxies`` and ``_proxy_stubs``."""

    def __init__(
        self,
        sim: Engine,
        name: str,
        cell_id: CellId,
        wired: WiredNetwork,
        wireless: WirelessChannel,
        directory: DirectoryService,
        instruments: Optional[Instruments] = None,
        config: Optional[MssConfig] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.node_id = mss_id(name)
        self.cell_id = cell_id
        self.wired = wired
        self.wireless = wireless
        self.directory = directory
        self.instr = instruments or Instruments.disabled()
        self.config = config or MssConfig()
        self.placement = self.config.placement or CurrentCellPlacement()

        self.entries: Dict[NodeId, MhEntry] = {}
        # Wireless-leg redelivery, keyed (mh, request id), and the
        # hand-off probe, keyed mh.
        redeliver = self.config.wireless_ack_timeout
        self._redelivery = Retrier(
            sim, retry_policy(redeliver,
                              None if redeliver is None else 4 * redeliver,
                              WIRELESS_REDELIVERY_ATTEMPTS),
            self._wireless_redeliver, "mss:wl-redeliver")
        self._probe = Retrier(
            sim, retry_policy(HANDOFF_PROBE_INTERVAL),
            self._handoff_probe, "mss:handoff-probe")
        self.proxies: Dict[ProxyId, Proxy] = {}
        # Forwarding stubs left behind for proxies that moved away.
        self._proxy_stubs: Dict[ProxyId, ProxyRef] = {}
        # Crashed flag: while down the station accepts no traffic and
        # sends nothing (see crash()/restart()).
        self.down = False

        self._inbox = Inbox(
            sim, self._handle,
            proc_delay=self.config.proc_delay,
            ack_priority=self.config.ack_priority,
        )
        self._handlers: Dict[Type[Message], MessageHandler] = {
            JoinMsg: self._on_join,
            LeaveMsg: self._on_leave,
            GreetMsg: self._on_greet,
            RequestMsg: self._on_request,
            AckMsg: self._on_ack,
            DeregMsg: self._on_dereg,
            DeregAckMsg: self._on_deregack,
            CreateProxyMsg: self._on_create_proxy,
            ProxyCreatedMsg: self._on_proxy_created,
            ProxyGoneMsg: self._on_proxy_gone,
            ProxyMigrateRequestMsg: self._on_proxy_migrate_request,
            ProxyMoveMsg: self._on_proxy_move,
            ResultForwardMsg: self._on_result_forward,
            DelPrefNoticeMsg: self._on_del_pref_notice,
            UpdateCurrentLocMsg: self._on_proxy_bound,
            ServerResultMsg: self._on_proxy_bound,
            AckForwardMsg: self._on_proxy_bound,
            DelProxyConfirmMsg: self._on_proxy_bound,
            ResultBounceMsg: self._on_proxy_bound,
            MhLocateMsg: self._on_mh_locate,
            ForwardedRequestMsg: self._on_proxy_bound,
            NotificationMsg: self._on_proxy_bound,
            SubscriptionEndMsg: self._on_proxy_bound,
        }

        # Lazy observability gauges: sampled at export/scrape time only,
        # so the hot path pays nothing for them.
        hub = self.instr.hub
        hub.gauge(
            "rdp_mss_live_proxies",
            "Proxies currently hosted, per MSS",
            labels=("node",),
        ).labels(self.node_id).set_function(lambda: float(len(self.proxies)))
        hub.gauge(
            "rdp_mss_registered_mhs",
            "Mobile hosts currently registered, per MSS",
            labels=("node",),
        ).labels(self.node_id).set_function(lambda: float(sum(
            1 for entry in self.entries.values() if entry.pref is not None)))

        wired.attach(self)
        wireless.register_station(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MSS {self.name} cell={self.cell_id} entries={len(self.entries)}>"

    def pref_of(self, mh: NodeId) -> Optional[Pref]:
        """*mh*'s pref while it is registered here (local), else None."""
        entry = self.entries.get(mh)
        return entry.pref if entry is not None else None

    def _local(self, mh: NodeId) -> Optional[MhEntry]:
        entry = self.entries.get(mh)
        return entry if entry is not None and entry.pref is not None else None

    def _entry(self, mh: NodeId) -> MhEntry:
        entry = self.entries.get(mh)
        if entry is None:
            entry = self.entries[mh] = MhEntry()
        return entry

    # -- network entry points -----------------------------------------------

    def on_wired_message(self, message: Message) -> None:
        if self.down:
            self.instr.metrics.incr("mss_down_drops", node=self.node_id)
            return
        self._inbox.push(message)

    on_wireless_message = on_wired_message

    def on_delivery_failure(self, message: Message) -> None:
        """The wired transport exhausted its retry budget on one of our
        frames (called by :class:`~repro.net.wired.WiredNetwork`).

        Only forwarded results get an application-level fallback: the
        owning proxy re-enters its paged redelivery loop, so a result
        survives even a partition longer than the whole retransmission
        schedule.  Other kinds already have end-to-end retries above the
        transport (greet timers, ack timeouts, location updates), so
        they are only counted.
        """
        if self.down:
            return  # a crash wiped the state any retry would need
        self.instr.metrics.incr("mss_transport_failures", node=self.node_id)
        if isinstance(message, ResultForwardMsg):
            proxy = self.proxies.get(message.proxy_ref.proxy_id)
            if proxy is not None:
                proxy.on_delivery_failure(message.request_id)

    def _handle(self, message: Message) -> None:
        if self.down:
            # An inbox processing slot can still fire for a message that
            # was in service when the crash hit; it dies with the state.
            self.instr.metrics.incr("mss_down_drops", node=self.node_id)
            return
        self.instr.metrics.incr("mss_messages_processed", node=self.node_id)
        handler = self._handlers.get(type(message))
        if handler is None:
            self.instr.metrics.incr("mss_unhandled_messages", node=self.node_id)
            return
        handler(message)

    # -- helpers --------------------------------------------------------------

    def _wired_send(self, dst: NodeId, message: Message) -> None:
        if self.down:
            return  # a timer surviving the crash must not speak for us
        if dst == self.node_id:
            self._local_deliver(message)
        else:
            self.wired.send(self.node_id, dst, message)

    def _local_deliver(self, message: Message) -> None:
        """Deliver to ourselves without a wired hop (proxy co-located with
        respMss — the common case the paper optimizes for)."""
        message.src = self.node_id
        message.dst = self.node_id
        self.wired.stamp(message)
        self.instr.metrics.incr("local_dispatches", node=self.node_id)
        self.wired._row("send", self.node_id, message, detail=True,
                        net="local", dst=self.node_id)
        self.sim.schedule(0.0, self.on_wired_message, message,
                          label="mss:local")

    def _downlink(self, mh: NodeId, message: Message) -> None:
        if self.down:
            return
        self.wireless.downlink(self, mh, message)

    # -- ProxyHost interface (used by hosted Proxy objects) -------------------

    def proxy_wired_send(self, dst: NodeId, message: Message) -> None:
        self._wired_send(dst, message)

    def resolve_service(self, service: str) -> Optional[NodeId]:
        if self.directory.contains(service):
            return self.directory.lookup(service)
        return None

    def remove_proxy(self, proxy_id: ProxyId) -> None:
        self.proxies.pop(proxy_id, None)

    def proxy_page_mh(self, mh: NodeId, reply_to: ProxyRef) -> None:
        """Broadcast an MH page on behalf of a hosted proxy.

        Crash-healing extension: a repeatedly bounced result means the
        proxy's ``currentloc`` is stale and the pref that would have
        corrected it died with a crashed MSS.  Every station (ourselves
        included — the MH may be right here) is asked; whoever hosts the
        MH answers with a plain ``update_currentloc``.
        """
        self.instr.metrics.incr("mh_pages_sent", node=self.node_id)
        for station in self.wired.station_ids():
            self._wired_send(station, MhLocateMsg(mh=mh, proxy_ref=reply_to))

    def _on_mh_locate(self, msg: MhLocateMsg) -> None:
        if self._local(msg.mh) is None:
            self.instr.metrics.incr("mh_page_misses", node=self.node_id)
            return
        self.instr.metrics.incr("mh_page_hits", node=self.node_id)
        self._send_update_currentloc(msg.mh, msg.proxy_ref)

    def _new_proxy_id(self) -> ProxyId:
        return ProxyId(f"px{self.sim.ids.proxy()}")

    def _create_proxy(self, mh: NodeId, currentloc: Optional[NodeId] = None,
                      proxy_id: Optional[ProxyId] = None) -> Proxy:
        proxy_id = proxy_id or self._new_proxy_id()
        proxy = Proxy(
            self.sim, self, mh, proxy_id, self.instr,
            send_server_acks=self.config.send_server_acks,
            ack_timeout=self.config.proxy_ack_timeout,
            custody_ttl=self.config.proxy_custody_ttl,
            currentloc=currentloc,
        )
        self.proxies[proxy_id] = proxy
        return proxy

    # -- registration (join / leave / greet) ---------------------------------

    def _register(self, mh: NodeId, seq: int, how: str = "join") -> None:
        entry = self._entry(mh)
        if entry.pref is None:
            entry.pref = Pref()
        entry.reg_seq = seq
        entry.surrendered = False
        entry.failures = ()
        self.instr.recorder.record(self.sim.now, "register", self.node_id,
                                   mh=mh, seq=seq, how=how)
        self._downlink(mh, RegisteredMsg(mh=mh, seq=seq))

    def _unregister(self, mh: NodeId, entry: MhEntry) -> Pref:
        """Drop the registration; returns the pref (empty when none)."""
        pref = entry.pref or Pref()
        entry.pref = None
        entry.reg_seq = -1
        for key in self._redelivery:
            if key[0] == mh:
                self._redelivery.cancel(key)
        return pref

    def _row(self, entry: Optional[MhEntry], msg: object,
             in_cell: bool = False) -> Row:
        """:func:`handoff_row`, counted: where every row's counters go up."""
        row = handoff_row(entry, msg, self.node_id, in_cell)
        for name in row.counters:
            self.instr.metrics.incr(name, node=self.node_id)
        return row

    def _on_join(self, msg: JoinMsg) -> None:
        entry = self.entries.get(msg.mh)
        if self._row(entry, msg) is Row.JOIN_DUPLICATE:
            self._downlink(msg.mh, RegisteredMsg(mh=msg.mh, seq=entry.reg_seq))
        else:
            self._register(msg.mh, msg.seq, how="join")

    def _on_leave(self, msg: LeaveMsg) -> None:
        entry = self.entries.get(msg.mh)
        if entry is not None and self._unregister(msg.mh, entry).has_proxy:
            # Assumption 6 says an MH only leaves once everything is
            # acknowledged; count violations instead of crashing.
            self.instr.metrics.incr("mh_left_with_pending", node=self.node_id)
        self.instr.metrics.incr("mh_leaves", node=self.node_id)
        self.instr.recorder.record(self.sim.now, "deregister", self.node_id,
                                   mh=msg.mh, how="leave")

    def _on_greet(self, msg: GreetMsg) -> None:
        mh = msg.mh
        entry = self._entry(mh)
        row = self._row(entry, msg)
        if row is Row.GREET_DUPLICATE or row is Row.REACTIVATE_DUPLICATE:
            self._downlink(mh, RegisteredMsg(mh=mh, seq=entry.reg_seq))
        elif row is Row.GREET_BOUNCE:
            self._register(mh, msg.seq, how="bounce")
            if entry.pref.ref is not None:
                self._send_update_currentloc(mh, entry.pref.ref)
            self._flush_deferred_deregs(mh)
        elif row is Row.GREET_START or row is Row.GREET_RESTART:
            if row is Row.GREET_START:
                self.instr.recorder.record(self.sim.now, "handoff_start",
                                           self.node_id, mh=mh, old=msg.old_mss)
            self._acquire(mh, entry, msg.old_mss, msg.seq,
                          _custody_candidates(msg, self.node_id))
        elif row is Row.REACTIVATE_CHASE:
            target, *fallbacks = _custody_candidates(msg, self.node_id)
            self._acquire(mh, entry, target, msg.seq, tuple(fallbacks),
                          register_on_failure=True)
        elif row is Row.REACTIVATE or row is Row.REACTIVATE_IN_PLACE:
            self._reactivate(mh, entry, msg.seq)

    def _acquire(self, mh: NodeId, entry: MhEntry, target: NodeId, seq: int,
                 fallbacks: tuple, register_on_failure: bool = False) -> None:
        """Ask *target* for *mh*'s state under incarnation *seq*; a
        restart keeps the earlier deregs outstanding."""
        if entry.incoming is None:
            entry.incoming = _IncomingHandoff(
                register_on_failure=register_on_failure)
        record = entry.incoming
        record.old_mss, record.seq, record.started_at = target, seq, self.sim.now
        record.outstanding.add(seq)
        record.fallbacks = fallbacks
        self._wired_send(target, DeregMsg(mh=mh, seq=seq))
        # One probe chain per MH: per-record chains would pile up.
        if mh not in self._probe:
            self._probe.arm(mh)

    def _reactivate(self, mh: NodeId, entry: MhEntry, seq: int) -> None:
        """Register a reactivated MH in place; the proxy must re-send
        unacknowledged results — unless we retained them (footnote 3)."""
        self._register(mh, seq, how="reactivate")
        ref = entry.pref.ref
        if ref is not None and entry.retained:
            # Redeliver locally first and hold the location update back
            # until the Acks are through (or a fallback timer fires):
            # causal wired order then lets the proxy see the Acks before
            # the update, saving its retransmissions.
            for message in list(entry.retained.values()):
                self.instr.metrics.incr("retained_redeliveries", node=self.node_id)
                frame = WirelessResultMsg(
                    mh=mh, request_id=message.request_id,
                    delivery_id=message.delivery_id, payload=message.payload)
                self._downlink(mh, frame)
                self._redelivery.arm((mh, frame.request_id), frame)
            entry.deferred_update = ref
            self.sim.schedule(RETAIN_UPDATE_FALLBACK,
                              self._flush_deferred_update, mh,
                              label="mss:retain-fallback")
        elif ref is not None:
            self._send_update_currentloc(mh, ref)
        self._flush_deferred_deregs(mh)
        self._maybe_migrate_proxy(mh)

    def _flush_deferred_update(self, mh: NodeId) -> None:
        entry = self.entries.get(mh)
        if entry is None or entry.deferred_update is None:
            return
        ref, entry.deferred_update = entry.deferred_update, None
        if entry.pref is not None:
            self._send_update_currentloc(mh, ref)

    def _handoff_probe(self, mh: NodeId, _attempt: int) -> bool:
        """Liveness for acquisitions: a peer that crashed loses deferred
        deregs, so the dereg is re-sent until the acquisition is over."""
        entry = self.entries[mh]  # a crash cancels the probes
        if self._row(entry, None) is Row.PROBE_END:
            return False
        record = entry.incoming
        self._wired_send(record.old_mss, DeregMsg(mh=mh, seq=record.seq))
        return True

    def _send_update_currentloc(self, mh: NodeId, ref: ProxyRef) -> None:
        self.instr.metrics.incr("update_currentloc_sent", node=self.node_id)
        self._wired_send(ref.mss, UpdateCurrentLocMsg(
            mh=mh, proxy_id=ref.proxy_id, new_mss=self.node_id))

    # -- hand-off protocol ----------------------------------------------------

    def _on_dereg(self, msg: DeregMsg) -> None:
        """A peer asks for the MH's state; served deferred deregs come
        back through here as if they had just arrived."""
        mh, requester, seq = msg.mh, msg.src, msg.seq
        assert requester is not None
        entry = self.entries.get(mh)
        row = self._row(entry, msg)
        if row is Row.DEREG_SURRENDER:
            # Retained results are droppable residue: the proxy re-sends
            # via the new MSS's update (RDP's hand-off stays pref-only).
            entry.retained = None
            entry.deferred_update = None
            extra_bytes = self._handoff_extra_bytes(mh)
            pref = self._unregister(mh, entry)
            # From now on, Acks from this MH are ignored (paper, Section 3.1).
            entry.surrendered = True
            payload = PrefPayload(ref=pref.ref, rkpr=pref.rkpr)
            self._wired_send(requester, DeregAckMsg(
                mh=mh, seq=seq, found=True, pref=payload,
                extra_state_bytes=extra_bytes))
            self.instr.recorder.record(self.sim.now, "handoff_out",
                                       self.node_id, mh=mh, to=requester)
        elif row is Row.DEREG_DEFER_CREATING or row is Row.DEREG_DEFER_ACQUIRING:
            # The TTL breaks deferral cycles among superseded hand-offs
            # (A waits on B's queue while B waits on A's).
            waiting = (requester, seq)
            entry.deferred_deregs += (waiting,)
            self.sim.schedule(2 * HANDOFF_PROBE_INTERVAL,
                              self._expire_deferred_dereg, mh, waiting,
                              label="mss:defer-ttl")
        elif row is not Row.DEREG_PROBE_DUPLICATE:
            self._refuse(mh, requester, seq)

    def _refuse(self, mh: NodeId, requester: NodeId, seq: int) -> None:
        self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq, found=False))

    def _expire_deferred_dereg(self, mh: NodeId, waiting: Tuple[NodeId, int]) -> None:
        entry = self.entries.get(mh)
        if self._row(entry, waiting) is Row.DEFERRED_EXPIRED:
            entry.deferred_deregs = tuple(other for other in entry.deferred_deregs
                                          if other != waiting)
            self._refuse(mh, *waiting)

    def _handoff_extra_bytes(self, mh: NodeId) -> int:
        """Extra per-MH state a hand-off ships: none, as RDP hands over
        only the pref (paper, Section 5: "except for the proxy reference
        ... no other residue need be kept"); the I-TCP baseline ships more."""
        return 0

    def _on_deregack(self, msg: DeregAckMsg) -> None:
        mh = msg.mh
        entry = self.entries.get(mh)
        row = self._row(entry, msg, self._host_in_cell(mh))
        record = entry.incoming if entry is not None else None
        if record is not None:
            record.outstanding.discard(msg.seq)
        if row is Row.FOUND:
            entry.incoming = None
            pref = entry.pref = Pref(ref=msg.pref.ref, rkpr=msg.pref.rkpr)
            self._register(mh, max(record.seq, msg.seq), how="handoff")
            self._install_handoff_state(msg)
            duration = self.sim.now - record.started_at
            self.instr.metrics.observe("handoff_duration", duration)
            self.instr.recorder.record(
                self.sim.now, "handoff_done", self.node_id,
                mh=mh, old=record.old_mss, duration=duration,
                proxy_id=(pref.ref.proxy_id if pref.ref else None))
            if pref.ref is not None:
                self._send_update_currentloc(mh, pref.ref)
            self._flush_deferred_deregs(mh)
            self._maybe_migrate_proxy(mh)
        elif row is Row.FOUND_LATE:
            if record is not None and not record.outstanding:
                entry.incoming = None
            self._flush_deferred_deregs(mh)
        elif row is Row.NOT_FOUND_FALLBACK:
            record.old_mss, *fallbacks = record.fallbacks
            record.fallbacks = tuple(fallbacks)
            record.outstanding.add(record.seq)
            self._wired_send(record.old_mss, DeregMsg(mh=mh, seq=record.seq))
        elif row in (Row.NOT_FOUND_SERVE, Row.NOT_FOUND_BLIND,
                     Row.NOT_FOUND_REFUSE):
            entry.incoming = None
            entry.failures += (record.seq,)
            if row is Row.NOT_FOUND_BLIND:
                self._register(mh, record.seq, how="blind")
            if row is Row.NOT_FOUND_REFUSE:
                waiting, entry.deferred_deregs = entry.deferred_deregs, ()
                for requester, seq in waiting:
                    self._refuse(mh, requester, seq)
            else:
                self._flush_deferred_deregs(mh)

    def _install_handoff_state(self, msg: DeregAckMsg) -> None:
        """Hook: baselines that ship more than the pref install it here."""

    def _flush_deferred_deregs(self, mh: NodeId) -> None:
        """Serve *mh*'s deferred deregs as if they had just arrived: each
        must be answered, or the custody chain deadlocks."""
        entry = self.entries[mh]
        while (entry.deferred_deregs and entry.incoming is None
               and not (entry.pref is not None and entry.pref.creating)):
            (requester, seq), *waiting = entry.deferred_deregs
            entry.deferred_deregs = tuple(waiting)
            self._on_dereg(DeregMsg(mh=mh, seq=seq, src=requester))

    # -- requests -------------------------------------------------------------

    def _on_request(self, msg: RequestMsg) -> None:
        mh = msg.mh
        entry = self._local(mh)
        if entry is None:
            self.instr.metrics.incr("requests_from_unregistered", node=self.node_id)
            self._maybe_nack_registration(mh)
            return
        self.instr.metrics.incr("requests_accepted", node=self.node_id)
        pref = entry.pref
        # Any new request invalidates a pending Ready-to-Kill-pref
        # (Section 3.3): the existing proxy will serve this request too.
        pref.rkpr = False
        if pref.creating:
            entry.creation_queue += (msg,)
            return
        if pref.ref is None:
            target = self.placement.place(mh, self.node_id)
            if target == self.node_id:
                proxy = self._create_proxy(mh)
                pref.ref = proxy.ref
            else:
                pref.creating = True
                self.instr.metrics.incr("remote_proxy_creations", node=self.node_id)
                self._wired_send(target, CreateProxyMsg(
                    mh=mh, resp_mss=self.node_id,
                    request_id=msg.request_id, service=msg.service,
                    payload=msg.payload))
                return
        self._forward_request(pref.ref, msg)

    def _forward_request(self, ref: ProxyRef, msg: RequestMsg) -> None:
        self._wired_send(ref.mss, ForwardedRequestMsg(
            mh=msg.mh, proxy_id=ref.proxy_id,
            request_id=msg.request_id, service=msg.service,
            payload=msg.payload))

    def _on_create_proxy(self, msg: CreateProxyMsg) -> None:
        proxy = self._create_proxy(msg.mh, currentloc=msg.resp_mss)
        proxy.admit_request(msg.request_id, msg.service, msg.payload)
        assert msg.src is not None
        self._wired_send(msg.src, ProxyCreatedMsg(mh=msg.mh, ref=proxy.ref))

    # -- proxy migration (future-work extension) -------------------------------

    def _maybe_migrate_proxy(self, mh: NodeId) -> None:
        """Pull the MH's proxy over when it has drifted too far away."""
        threshold = self.config.proxy_migrate_distance
        distance_fn = self.config.station_distance
        if threshold is None or distance_fn is None:
            return
        entry = self._local(mh)
        if entry is None or entry.migrating:
            return
        ref = entry.pref.ref
        if ref is None or entry.pref.creating:
            return
        if ref.mss == self.node_id:
            return
        if distance_fn(self.node_id, ref.mss) < threshold:
            return
        new_proxy_id = self._new_proxy_id()
        entry.migrating = True
        self.instr.metrics.incr("proxy_migrations_started", node=self.node_id)
        self._wired_send(ref.mss, ProxyMigrateRequestMsg(
            mh=mh, proxy_id=ref.proxy_id, new_proxy_id=new_proxy_id))

    def _on_proxy_migrate_request(self, msg: ProxyMigrateRequestMsg) -> None:
        proxy = self.proxies.pop(msg.proxy_id, None)
        assert msg.src is not None
        if proxy is None:
            # Already gone (deleted or moved); the requester's inflight
            # marker clears via its stub-forwarded traffic or a later
            # request recreating a proxy — tell it explicitly.
            self.instr.metrics.incr("proxy_migrate_misses", node=self.node_id)
            self._wired_send(msg.src, ProxyMoveMsg(
                mh=msg.mh, new_proxy_id=msg.new_proxy_id, state=None))
            return
        state = proxy.export_state()
        state_bytes = proxy.state_bytes()
        proxy.mark_migrated()
        new_ref = ProxyRef(mss=msg.src, proxy_id=msg.new_proxy_id)
        self._proxy_stubs[msg.proxy_id] = new_ref
        self.sim.schedule(STUB_TTL, self._expire_stub,
                          msg.proxy_id, label="mss:stub-ttl")
        self.instr.metrics.incr("proxies_moved_out", node=self.node_id)
        # Custody transfer first, then the trace-level disappearance of
        # this host's copy, so online checkers can re-home outstanding
        # requests before seeing the delete.
        self.instr.recorder.record(self.sim.now, "proxy_move", self.node_id,
                                   mh=msg.mh, proxy_id=msg.proxy_id,
                                   to=msg.src, new_proxy_id=msg.new_proxy_id)
        self.instr.recorder.record(self.sim.now, "proxy_delete", self.node_id,
                                   mh=msg.mh, proxy_id=msg.proxy_id)
        self._wired_send(msg.src, ProxyMoveMsg(
            mh=msg.mh, new_proxy_id=msg.new_proxy_id,
            state=state, state_bytes=state_bytes))

    def _on_proxy_move(self, msg: ProxyMoveMsg) -> None:
        entry = self.entries.get(msg.mh)
        if entry is not None:
            entry.migrating = False
        if msg.state is None:
            return  # the proxy was gone; nothing moved
        proxy = self._create_proxy(msg.mh, proxy_id=msg.new_proxy_id)
        proxy.import_state(msg.state)
        self.instr.metrics.incr("proxies_moved_in", node=self.node_id)
        if entry is not None and entry.pref is not None:
            entry.pref.ref = proxy.ref
        proxy.after_relocation()

    def _expire_stub(self, proxy_id: ProxyId) -> None:
        self._proxy_stubs.pop(proxy_id, None)

    def _maybe_nack_registration(self, mh: NodeId) -> None:
        """Beyond the paper's no-failure model: after a crash/restart an
        MSS receives traffic from MHs it does not know.  Nack them so
        they re-register — but never while a hand-off could explain the
        unknown state (the registration is already on its way then)."""
        entry = self.entries.get(mh)
        if entry is not None and (entry.surrendered
                                  or entry.incoming is not None):
            return
        self.instr.metrics.incr("registration_nacks", node=self.node_id)
        self._downlink(mh, ReRegisterMsg(mh=mh))

    def crash(self) -> None:
        """Crash the station: lose all volatile state and go dark.

        The paper assumes MSSs "are reliable and do not fail"
        (assumption 2); this operation exists to explore what the
        protocol plus the recovery extensions (registration nacks,
        proxy-gone bounces, client retries, the reliable wired link) can
        and cannot absorb when that assumption is broken.

        Every per-MH entry, probe and redelivery timer, every proxy and
        every forwarding stub is lost.  While down the station
        drops every wired/wireless arrival and sends nothing; frames
        addressed to it on a reliable fabric are retransmitted by their
        senders across the outage.  Idempotent.
        """
        if self.down:
            return
        self.down = True
        self.wired.set_down(self.node_id)
        dropped = self._inbox.drop_all()
        self.instr.metrics.incr("mss_crashes", node=self.node_id)
        self.instr.recorder.record(self.sim.now, "mss_crash", self.node_id,
                                   inbox_dropped=dropped)
        self._probe.cancel_all()
        self._redelivery.cancel_all()
        self.entries.clear()
        self.proxies.clear()
        self._proxy_stubs.clear()

    def restart(self) -> None:
        """Reboot after :meth:`crash` with empty volatile state.

        The station keeps its identity and network attachments (same
        host, fresh memory).  Unknown MHs that speak to it are nacked
        into re-registering (:meth:`_maybe_nack_registration`); stale
        proxy references bounce through the proxy-gone path.
        """
        if not self.down:
            return
        self.down = False
        self.wired.set_up(self.node_id)
        self.instr.metrics.incr("mss_restarts", node=self.node_id)
        self.instr.recorder.record(self.sim.now, "mss_restart", self.node_id)

    def crash_and_restart(self) -> None:
        """Instantaneous crash+reboot (state loss with zero downtime)."""
        self.crash()
        self.restart()

    def _on_proxy_gone(self, msg: ProxyGoneMsg) -> None:
        mh = msg.mh
        pref = self.pref_of(mh)
        if pref is None:
            self.instr.metrics.incr("proxy_gone_for_absent_mh", node=self.node_id)
            return
        if pref.ref is not None and pref.ref.proxy_id == msg.proxy_id:
            pref.clear_proxy()
            self.instr.metrics.incr("prefs_cleared_dangling", node=self.node_id)
        # Re-drive the request through the normal path (a new proxy will
        # be created if the pref is now empty).
        self._on_request(RequestMsg(mh=mh, request_id=msg.request_id,
                                    service=msg.service, payload=msg.payload))

    def _on_proxy_created(self, msg: ProxyCreatedMsg) -> None:
        mh = msg.mh
        entry = self.entries.get(mh)
        if self._row(entry, msg) is Row.PROXY_CREATED_ABSENT:
            return
        entry.pref.ref = msg.ref
        entry.pref.creating = False
        queued, entry.creation_queue = entry.creation_queue, ()
        for request in queued:
            self._forward_request(msg.ref, request)
        self._flush_deferred_deregs(mh)

    # -- results and acks ------------------------------------------------------

    def _adopt(self, mh: NodeId, pref: Pref, ref: ProxyRef, how: str) -> None:
        """Point *mh*'s pref at *ref* outside the hand-off path (``how`` is
        ``rebuild`` or ``refresh``), counted and traced.

        The oracle's single-proxy checker reads these rows as the
        authoritative 'this proxy serves this MH now' signal — after an
        MSS-amnesia fork the custody chain can heal in the *older*
        proxy's favour, and without this row the healing looks like a
        superseded proxy going rogue.
        """
        pref.ref = ref
        self.instr.metrics.incr("prefs_rebuilt" if how == "rebuild"
                                else "prefs_refreshed", node=self.node_id)
        if self.instr.recorder.wants("proxy_adopt"):
            self.instr.recorder.record(self.sim.now, "proxy_adopt",
                                       self.node_id, mh=mh,
                                       proxy_id=ref.proxy_id, how=how)

    def _on_result_forward(self, msg: ResultForwardMsg) -> None:
        mh = msg.mh
        entry = self._local(mh)
        if entry is None:
            # Stale forward: the MH moved on.  Normally the proxy re-sends
            # when it learns the new location (Section 3.1), but if the
            # pref holding our address died in an MSS crash no location
            # update is ever coming — bounce the forward back so the proxy
            # retries on its own schedule instead of waiting forever.
            self.instr.metrics.incr("results_for_absent_mh", node=self.node_id)
            self._wired_send(msg.proxy_ref.mss, ResultBounceMsg(
                mh=mh, proxy_id=msg.proxy_ref.proxy_id,
                request_id=msg.request_id))
            return
        pref = entry.pref
        foreign = False
        if pref.ref is None:
            self._adopt(mh, pref, msg.proxy_ref, "rebuild")
        elif pref.ref != msg.proxy_ref and not pref.creating:
            local = (self.proxies.get(pref.ref.proxy_id)
                     if pref.ref.mss == self.node_id else None)
            if local is not None and local.requestlist:
                # A live local proxy owns this pref; a crash-orphaned
                # predecessor retransmitting from elsewhere must not
                # steal it, or new requests would land on the zombie.
                # Still deliver, and remember where this one's Ack goes.
                foreign = True
                pref.foreign[msg.request_id] = msg.proxy_ref
                self.instr.metrics.incr("prefs_refresh_refused",
                                        node=self.node_id)
            else:
                # The proxy announced itself from a new address (it
                # migrated); adopt it so Acks stop detouring via the stub.
                self._adopt(mh, pref, msg.proxy_ref, "refresh")
        if not foreign:  # a foreign forward must not touch the owner's books
            if msg.del_pref and not self.config.persistent_proxies:
                pref.rkpr = True
            pref.outstanding.add(msg.request_id)
        self.instr.metrics.incr("results_forwarded_to_mh", node=self.node_id)
        wireless_result = WirelessResultMsg(
            mh=mh, request_id=msg.request_id,
            delivery_id=msg.delivery_id, payload=msg.payload)
        if self.config.retain_results and self._host_unreachable(mh):
            # Footnote 3: keep the message rather than relying solely on
            # the proxy's next retransmission.
            if entry.retained is None:
                entry.retained = {}
            entry.retained[msg.request_id] = wireless_result
            self.instr.metrics.incr("results_retained", node=self.node_id)
            return
        self._downlink(mh, wireless_result)
        if not foreign:
            self._redelivery.arm((mh, msg.request_id), wireless_result)

    # -- wireless-leg redelivery ------------------------------------------------

    def _wireless_redeliver(self, key: Tuple[NodeId, RequestId], attempt: int,
                            message: WirelessResultMsg) -> bool:
        """Re-downlink a result whose Ack has not come back.

        The respMss covers radio fades locally: the proxy's end-to-end
        ``proxy_ack_timeout`` still backstops everything, but it is slow
        by design (it crosses the wired fabric); this loop retries the
        one hop that actually failed.  Backoff doubles per attempt,
        capped at 4x the base timeout, with a bounded attempt budget
        after which the proxy's end-to-end timeout takes over.  A fresh
        forward supersedes the old frame (new delivery id) and restarts
        the local schedule.
        """
        mh, request_id = key
        # An armed timer always has its entry: only a crash drops
        # entries, and it cancels every timer.
        entry = self.entries[mh]
        if entry.pref is None or request_id not in entry.pref.outstanding:
            return False  # acked, handed off, or gone
        # The metrics bridge exports this as rdp_wireless_redeliveries_total.
        self.instr.metrics.incr("wireless_redeliveries", node=self.node_id)
        if self.instr.recorder.wants("wireless_redelivery"):
            self.instr.recorder.record(
                self.sim.now, "wireless_redelivery", self.node_id,
                mh=mh, request_id=request_id, attempt=attempt)
        self._downlink(mh, message)
        return True

    def _host_in_cell(self, mh: NodeId) -> bool:
        """Radio-level knowledge: is the MH physically in our cell?"""
        try:
            host = self.wireless.host(mh)
        except UnknownNodeError:
            return False
        return host.current_cell == self.cell_id

    def _host_unreachable(self, mh: NodeId) -> bool:
        """Footnote 3's 'able to detect that the target MH is currently
        inactive' — modelled as radio-level knowledge of the host."""
        try:
            host = self.wireless.host(mh)
        except UnknownNodeError:
            return False
        return host.state is not MhState.ACTIVE or host.current_cell != self.cell_id

    def _on_del_pref_notice(self, msg: DelPrefNoticeMsg) -> None:
        mh = msg.mh
        pref = self.pref_of(mh)
        if pref is None:
            self.instr.metrics.incr("del_pref_for_absent_mh", node=self.node_id)
            return
        if self.config.persistent_proxies:
            return
        if pref.ref is None:
            self._adopt(mh, pref, msg.proxy_ref, "rebuild")
        pref.rkpr = True
        if (self.config.proxy_ack_timeout is not None
                and not pref.outstanding and not pref.creating):
            # The special message lost a race against the final Ack
            # (possible under fault-induced reordering): the removal
            # condition already holds and no further Ack will piggyback
            # del-proxy, so confirm removal explicitly.  Gated with the
            # other crash-healing extensions (proxy_ack_timeout is the
            # fault switch) — on a reliable fabric the paper's piggyback
            # protocol closes every race on its own and we keep its
            # message sequence exactly.
            ref = pref.ref
            pref.clear_proxy()
            self.instr.metrics.incr("del_proxy_confirms", node=self.node_id)
            self._wired_send(ref.mss, DelProxyConfirmMsg(
                mh=mh, proxy_id=ref.proxy_id))

    def _on_ack(self, msg: AckMsg) -> None:
        mh = msg.mh
        entry = self.entries.get(mh)
        row = self._row(entry, msg)
        if row is Row.ACK_IGNORED:
            # Dead since we served the hand-off (paper, Section 3.1): the
            # proxy will retransmit instead.
            self.instr.recorder.record(self.sim.now, "ack_ignored", self.node_id,
                                       mh=mh, request_id=msg.request_id)
        elif row is Row.ACK_UNKNOWN:
            self._maybe_nack_registration(mh)
        if row in (Row.ACK_IGNORED, Row.ACK_UNKNOWN, Row.ACK_ACQUIRING):
            return
        pref = entry.pref
        pref.outstanding.discard(msg.request_id)
        self._redelivery.cancel((mh, msg.request_id))
        retained = entry.retained
        if retained is not None:
            retained.pop(msg.request_id, None)
            if not retained:
                entry.retained = None
                # All retained results acknowledged: release the deferred
                # location update right after this Ack's forward so the
                # proxy (causal order) sees the Acks first.
                self.sim.schedule(0.0, self._flush_deferred_update, mh,
                                  label="mss:retain-release")
        if row is Row.ACK_FOREIGN:
            # A delivery forwarded by a proxy that does not own this pref
            # (see _on_result_forward) is acked straight back with removal
            # permission: a proxy in that position has no future here, and
            # its own live-requests guard protects it if more of its
            # deliveries are still unacknowledged.
            ref, del_proxy = pref.foreign.pop(msg.request_id), True
        elif row is Row.ACK_FORWARD:
            ref = pref.ref
            del_proxy = bool(pref.rkpr and not pref.outstanding and not pref.creating)
            if del_proxy:
                pref.clear_proxy()
        else:
            return  # no proxy to forward to
        self._wired_send(ref.mss, AckForwardMsg(
            mh=mh, proxy_id=ref.proxy_id,
            request_id=msg.request_id, delivery_id=msg.delivery_id,
            del_proxy=del_proxy))

    # -- proxy-addressed wired messages ----------------------------------------

    def _on_proxy_bound(self, msg: Message) -> None:
        proxy_id: ProxyId = msg.proxy_id  # type: ignore[attr-defined]
        proxy = self.proxies.get(proxy_id)
        if proxy is None:
            stub = self._proxy_stubs.get(proxy_id)
            if stub is not None:
                # The proxy moved; chase it (one extra hop until every
                # holder of the old address learns the new one).
                msg.proxy_id = stub.proxy_id  # type: ignore[attr-defined]
                self.instr.metrics.incr("stub_forwards", node=self.node_id)
                self._wired_send(stub.mss, msg)
                return
            self.instr.metrics.incr("stale_proxy_messages", node=self.node_id)
            if isinstance(msg, ForwardedRequestMsg) and msg.src is not None:
                # Never swallow a live request: tell the respMss its pref
                # dangles so it can re-create a proxy.
                self._wired_send(msg.src, ProxyGoneMsg(
                    mh=msg.mh, proxy_id=proxy_id,
                    request_id=msg.request_id, service=msg.service,
                    payload=msg.payload))
            return
        if isinstance(msg, UpdateCurrentLocMsg):
            proxy.handle_update_currentloc(msg)
        elif isinstance(msg, ServerResultMsg):
            proxy.handle_server_result(msg)
        elif isinstance(msg, AckForwardMsg):
            proxy.handle_ack_forward(msg)
        elif isinstance(msg, DelProxyConfirmMsg):
            proxy.handle_del_proxy_confirm(msg)
        elif isinstance(msg, ResultBounceMsg):
            proxy.handle_result_bounce(msg)
        elif isinstance(msg, ForwardedRequestMsg):
            proxy.handle_forwarded_request(msg)
        elif isinstance(msg, NotificationMsg):
            proxy.handle_notification(msg)
        elif isinstance(msg, SubscriptionEndMsg):
            proxy.handle_subscription_end(msg)
