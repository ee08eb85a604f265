"""The Mobile Support Station (MSS).

An MSS is a reliable static host that (paper, Sections 2-3):

* serves one cell and keeps ``local_mhs``, the set of MHs currently in it;
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
from typing import Any, Callable, Dict, List, Optional, Set, Type

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
from ..instruments import Instruments
from ..net.directory import DirectoryService
from ..net.message import Message
from ..net.wired import WiredNetwork
from ..net.wireless import WirelessChannel
from ..engine import Engine
from ..types import CellId, NodeId, ProxyId, ProxyRef, RequestId, mss_id
from .inbox import Inbox
from .pref import PrefTable

#: One dispatch-table entry: a bound method handling the concrete message
#: class keyed by the entry.  Each handler declares its precise subclass
#: (``def _on_join(self, msg: JoinMsg)``), so the table's common value
#: type must erase that parameter (Callable is contravariant in it) — the
#: ``type(message)`` lookup in :meth:`Mss._handle` restores the pairing
#: at runtime, and the RDP004 static pass checks each handler body
#: against its registered class.
MessageHandler = Callable[[Any], None]


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
    # update_currentloc is deferred briefly so the Acks reach the proxy
    # first (causal order then suppresses the wired retransmission).
    retain_results: bool = False
    retain_update_fallback: float = 0.2
    # Proxy-side redelivery: re-forward an unacknowledged result after
    # this long (exponential backoff).  None keeps the paper's purely
    # event-driven proxy; fault-injected worlds enable it so a crashed
    # respMss cannot orphan a result forever (see core/proxy.py).
    proxy_ack_timeout: Optional[float] = None
    # MSS-side redelivery over the *wireless* leg: re-downlink a result
    # whose Ack has not come back after this long, with exponential
    # backoff capped at 4x and a bounded attempt budget — the respMss
    # covering radio fades locally instead of waiting out the proxy's
    # (much slower) end-to-end ack timeout.  None keeps the paper's
    # fire-and-forget downlink.
    wireless_ack_timeout: Optional[float] = None
    wireless_redelivery_attempts: int = 6
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
    stub_ttl: float = 120.0
    # Hand-off liveness probe: re-send an unanswered dereg after this
    # long.  The wired network never loses messages, but a crashed peer
    # loses *deferred* deregs; the probe is what makes acquisitions live
    # across that (inert in failure-free runs — responses beat it).
    handoff_probe_interval: float = 5.0


@dataclass
class _IncomingHandoff:
    old_mss: NodeId
    started_at: float
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


class MobileSupportStation:
    """One cell's Mobile Support Station."""

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

        self.local_mhs: Set[NodeId] = set()
        self.prefs = PrefTable()
        self.proxies: Dict[ProxyId, Proxy] = {}
        self._incoming: Dict[NodeId, _IncomingHandoff] = {}
        self._pending_deregs: Dict[NodeId, List[tuple]] = {}
        self._deregistered: Set[NodeId] = set()
        self._creation_queue: Dict[NodeId, List[RequestMsg]] = {}
        # Registration incarnation per local MH (from the greet/join that
        # registered it); used to reject stale hand-off transactions.
        self._reg_seqs: Dict[NodeId, int] = {}
        # Footnote-3 retention: results kept for local MHs that were
        # inactive at delivery time, plus deferred location updates.
        self._retained: Dict[NodeId, Dict[RequestId, WirelessResultMsg]] = {}
        self._deferred_updates: Dict[NodeId, ProxyRef] = {}
        # Proxy migration: moves we initiated (awaiting the state) and
        # forwarding stubs left behind for proxies that moved away.
        self._migrations_inflight: Set[NodeId] = set()
        self._proxy_stubs: Dict[ProxyId, ProxyRef] = {}
        # Wireless-leg redelivery: per (mh, request_id) the last result
        # frame downlinked, the attempt count, and the armed timer event.
        self._wireless_pending: Dict[tuple, list] = {}
        # Failed full custody chases per (mh, seq): after two, the state
        # is presumed destroyed (MSS crash) and the MH registers fresh.
        self._failed_acquisitions: Dict[tuple, int] = {}
        # One live probe chain per MH at most (see _schedule_handoff_probe).
        self._probes_armed: Set[NodeId] = set()
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
        ).labels(self.node_id).set_function(lambda: float(len(self.local_mhs)))

        wired.attach(self)
        wireless.register_station(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MSS {self.name} cell={self.cell_id} mhs={len(self.local_mhs)}>"

    # -- network entry points -----------------------------------------------

    def on_wired_message(self, message: Message) -> None:
        if self.down:
            self.instr.metrics.incr("mss_down_drops", node=self.node_id)
            return
        self._inbox.push(message)

    def on_wireless_message(self, message: Message) -> None:
        if self.down:
            self.instr.metrics.incr("mss_down_drops", node=self.node_id)
            return
        self._inbox.push(message)

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
        if self.instr.recorder.wants("send"):
            self.instr.recorder.record(
                self.sim.now, "send", self.node_id,
                net="local", msg=message.kind, msg_id=message.msg_id,
                dst=self.node_id, detail=message.describe())
        self.sim.schedule(0.0, self._local_push, message, label="mss:local")

    def _local_push(self, message: Message) -> None:
        if self.down:
            self.instr.metrics.incr("mss_down_drops", node=self.node_id)
            return
        self._inbox.push(message)

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
        if msg.mh not in self.local_mhs:
            self.instr.metrics.incr("mh_page_misses", node=self.node_id)
            return
        self.instr.metrics.incr("mh_page_hits", node=self.node_id)
        self._send_update_currentloc(msg.mh, msg.proxy_ref)

    def _create_proxy(self, mh: NodeId,
                      currentloc: Optional[NodeId] = None) -> Proxy:
        proxy_id = ProxyId(f"px{self.sim.ids.proxy()}")
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
        self.local_mhs.add(mh)
        self.prefs.ensure(mh)
        self._reg_seqs[mh] = seq
        self._deregistered.discard(mh)
        for key in [k for k in self._failed_acquisitions if k[0] == mh]:
            del self._failed_acquisitions[key]
        self.instr.recorder.record(self.sim.now, "register", self.node_id,
                                   mh=mh, seq=seq, how=how)
        self._downlink(mh, RegisteredMsg(mh=mh, seq=seq))

    def _known_seq(self, mh: NodeId) -> int:
        return self._reg_seqs.get(mh, -1)

    def _on_join(self, msg: JoinMsg) -> None:
        already = msg.mh in self.local_mhs
        if already and msg.seq <= self._known_seq(msg.mh):
            # Join retransmission: confirm again.
            self._downlink(msg.mh, RegisteredMsg(mh=msg.mh,
                                                 seq=self._known_seq(msg.mh)))
            return
        self._register(msg.mh, msg.seq, how="join")
        if not already:
            self.instr.metrics.incr("mh_joins", node=self.node_id)

    def _on_leave(self, msg: LeaveMsg) -> None:
        pref = self.prefs.pop(msg.mh)
        if pref.has_proxy:
            # Assumption 6 says an MH only leaves once everything is
            # acknowledged; count violations instead of crashing.
            self.instr.metrics.incr("mh_left_with_pending", node=self.node_id)
        self.local_mhs.discard(msg.mh)
        self._reg_seqs.pop(msg.mh, None)
        self._cancel_wireless_redelivery(msg.mh)
        self.instr.metrics.incr("mh_leaves", node=self.node_id)
        self.instr.recorder.record(self.sim.now, "deregister", self.node_id,
                                   mh=msg.mh, how="leave")

    def _greet_fallbacks(self, msg: GreetMsg) -> tuple:
        return tuple(node for node in msg.old_candidates
                     if node != self.node_id and node != msg.old_mss)

    def _on_greet(self, msg: GreetMsg) -> None:
        mh = msg.mh
        if msg.old_mss == self.node_id:
            self._on_reactivation_greet(mh, msg.seq,
                                        self._greet_fallbacks(msg))
            return
        if mh in self.local_mhs:
            if msg.seq <= self._known_seq(mh):
                # Greet retransmission after a completed hand-off: confirm.
                self._downlink(mh, RegisteredMsg(mh=mh, seq=self._known_seq(mh)))
                self.instr.metrics.incr("duplicate_greets", node=self.node_id)
                return
            # The MH left us for old_mss and came straight back before
            # that hand-off reached us: we still own the state, so simply
            # re-register under the new incarnation.  The superseded
            # hand-off's dereg will be rejected as stale when it arrives.
            self._register(mh, msg.seq, how="bounce")
            self.instr.metrics.incr("bounce_re_registrations", node=self.node_id)
            pref = self.prefs.ensure(mh)
            if pref.ref is not None:
                self._send_update_currentloc(mh, pref.ref)
            self._flush_pending_deregs(mh)
            return
        record = self._incoming.get(mh)
        if record is not None:
            if msg.seq <= record.seq:
                self.instr.metrics.incr("duplicate_greets", node=self.node_id)
                return
            # The MH re-entered our cell (a newer incarnation) while we
            # were still acquiring it: restart the hand-off toward the
            # MH's latest previous station, keeping the unanswered dereg
            # bookkeeping of earlier attempts.
            record.old_mss = msg.old_mss
            record.seq = msg.seq
            record.started_at = self.sim.now
            record.outstanding.add(msg.seq)
            record.fallbacks = self._greet_fallbacks(msg)
            self.instr.metrics.incr("handoffs_restarted", node=self.node_id)
            self._wired_send(msg.old_mss, DeregMsg(mh=mh, seq=msg.seq))
            return
        self._incoming[mh] = _IncomingHandoff(old_mss=msg.old_mss,
                                              started_at=self.sim.now,
                                              seq=msg.seq,
                                              outstanding={msg.seq},
                                              fallbacks=self._greet_fallbacks(msg))
        self.instr.recorder.record(self.sim.now, "handoff_start", self.node_id,
                                   mh=mh, old=msg.old_mss)
        self.instr.metrics.incr("handoffs_started", node=self.node_id)
        self._wired_send(msg.old_mss, DeregMsg(mh=mh, seq=msg.seq))
        self._schedule_handoff_probe(mh)

    def _on_reactivation_greet(self, mh: NodeId, seq: int,
                               fallbacks: tuple = ()) -> None:
        """Greet with old == self: reactivation in the same cell (no
        hand-off), but the proxy must re-send unacknowledged results —
        unless we retained them locally (footnote 3)."""
        if seq <= self._known_seq(mh):
            self._downlink(mh, RegisteredMsg(mh=mh, seq=self._known_seq(mh)))
            self.instr.metrics.incr("duplicate_greets", node=self.node_id)
            return
        if mh not in self.local_mhs:
            self.instr.metrics.incr("reactivation_of_unknown_mh", node=self.node_id)
            if fallbacks and mh not in self._incoming:
                # The MH believes we are its respMss but custody moved on
                # without its knowledge (its confirmation was lost):
                # fetch the state from the candidate owner instead of
                # registering blind with an empty pref.
                target, rest = fallbacks[0], fallbacks[1:]
                self._incoming[mh] = _IncomingHandoff(
                    old_mss=target, started_at=self.sim.now, seq=seq,
                    outstanding={seq}, fallbacks=rest,
                    register_on_failure=True)
                self.instr.metrics.incr("handoffs_started", node=self.node_id)
                self._wired_send(target, DeregMsg(mh=mh, seq=seq))
                self._schedule_handoff_probe(mh)
                return
            if mh in self._incoming:
                self.instr.metrics.incr("duplicate_greets", node=self.node_id)
                return
        self._register(mh, seq, how="reactivate")
        self.instr.metrics.incr("reactivations", node=self.node_id)
        pref = self.prefs.ensure(mh)
        retained = self._retained.get(mh)
        if pref.ref is not None and retained:
            # Redeliver locally first and hold the location update back
            # until the Acks are through (or a fallback timer fires):
            # causal wired order then lets the proxy see the Acks before
            # the update, saving its retransmissions.
            for message in list(retained.values()):
                self.instr.metrics.incr("retained_redeliveries", node=self.node_id)
                frame = WirelessResultMsg(
                    mh=mh, request_id=message.request_id,
                    delivery_id=message.delivery_id, payload=message.payload)
                self._downlink(mh, frame)
                self._arm_wireless_redelivery(mh, frame)
            self._deferred_updates[mh] = pref.ref
            self.sim.schedule(self.config.retain_update_fallback,
                              self._flush_deferred_update, mh,
                              label="mss:retain-fallback")
        elif pref.ref is not None:
            self._send_update_currentloc(mh, pref.ref)
        self._flush_pending_deregs(mh)
        self._maybe_migrate_proxy(mh)

    def _flush_deferred_update(self, mh: NodeId) -> None:
        ref = self._deferred_updates.pop(mh, None)
        if ref is None:
            return
        if mh in self.local_mhs:
            self._send_update_currentloc(mh, ref)

    def _schedule_handoff_probe(self, mh: NodeId) -> None:
        # At most one live chain per MH, whatever churn the acquisition
        # record goes through — per-record chains would accumulate under
        # heavy hand-off load.
        if mh in self._probes_armed:
            return
        self._probes_armed.add(mh)
        self.sim.schedule(self.config.handoff_probe_interval,
                          self._handoff_probe, mh, label="mss:handoff-probe")

    def _handoff_probe(self, mh: NodeId) -> None:
        """Liveness for acquisitions: a peer that crashed loses deferred
        deregs, so an unanswered dereg is retransmitted (idempotent: the
        target either surrenders or answers not-found)."""
        self._probes_armed.discard(mh)
        record = self._incoming.get(mh)
        if record is None:
            return
        if record.outstanding:
            self.instr.metrics.incr("handoff_probes", node=self.node_id)
            self._wired_send(record.old_mss,
                             DeregMsg(mh=mh, seq=record.seq))
        self._schedule_handoff_probe(mh)

    def _send_update_currentloc(self, mh: NodeId, ref: ProxyRef) -> None:
        self.instr.metrics.incr("update_currentloc_sent", node=self.node_id)
        self._wired_send(ref.mss, UpdateCurrentLocMsg(
            mh=mh, proxy_id=ref.proxy_id, new_mss=self.node_id))

    # -- hand-off protocol ----------------------------------------------------

    def _on_dereg(self, msg: DeregMsg) -> None:
        requester = msg.src
        assert requester is not None
        self._do_deregister(msg.mh, requester, msg.seq)

    def _do_deregister(self, mh: NodeId, requester: NodeId, seq: int) -> None:
        if mh in self.local_mhs:
            if seq <= self._known_seq(mh):
                # The MH re-registered here since that greet: the
                # requested hand-off is stale — refuse, keep the state.
                self.instr.metrics.incr("stale_deregs_rejected", node=self.node_id)
                self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq,
                                                        found=False))
                return
            pref = self.prefs.get(mh)
            if pref is not None and pref.creating:
                # A remote proxy creation is in flight; hand over once the
                # pref has an address so it cannot be lost.
                self._defer_dereg(mh, requester, seq)
                return
            self._surrender(mh, requester, seq)
            return
        record = self._incoming.get(mh)
        if record is not None:
            if seq <= record.seq:
                self.instr.metrics.incr("stale_deregs_rejected", node=self.node_id)
                self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq,
                                                        found=False))
                return
            # The MH moved past us before our own acquisition finished;
            # serve the transfer as soon as it completes.
            self._defer_dereg(mh, requester, seq)
            return
        self.instr.metrics.incr("deregs_for_unknown_mh", node=self.node_id)
        self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq, found=False))

    def _defer_dereg(self, mh: NodeId, requester: NodeId, seq: int) -> None:
        """Queue a hand-off request for later service, deduplicating
        probe retransmissions of the same (requester, seq).

        Deferred entries expire with a not-found answer: restarted
        acquisitions can weave deferral *cycles* among superseded
        hand-offs (A waits on B's queue while B waits on A's), and an
        expiry is what guarantees every dereg is eventually answered.
        """
        waiting = self._pending_deregs.setdefault(mh, [])
        if (requester, seq) in waiting:
            self.instr.metrics.incr("dereg_probe_duplicates", node=self.node_id)
            return
        waiting.append((requester, seq))
        self.instr.metrics.incr("deregs_deferred", node=self.node_id)
        self.sim.schedule(2 * self.config.handoff_probe_interval,
                          self._expire_deferred_dereg, mh, requester, seq,
                          label="mss:defer-ttl")

    def _expire_deferred_dereg(self, mh: NodeId, requester: NodeId,
                               seq: int) -> None:
        waiting = self._pending_deregs.get(mh)
        if waiting is None or (requester, seq) not in waiting:
            return
        waiting.remove((requester, seq))
        if not waiting:
            del self._pending_deregs[mh]
        self.instr.metrics.incr("deferred_deregs_expired", node=self.node_id)
        self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq, found=False))

    def _surrender(self, mh: NodeId, requester: NodeId, seq: int) -> None:
        """Hand the MH's state to *requester* (the actual de-registration)."""
        # Retained results are droppable residue: the proxy re-sends via
        # the new MSS's update (RDP's hand-off stays pref-only).
        self._retained.pop(mh, None)
        self._deferred_updates.pop(mh, None)
        self._cancel_wireless_redelivery(mh)
        extra_bytes = self._handoff_extra_bytes(mh)
        pref = self.prefs.pop(mh)
        self.local_mhs.discard(mh)
        self._reg_seqs.pop(mh, None)
        # From now on, Acks from this MH are ignored (paper, Section 3.1).
        self._deregistered.add(mh)
        payload = PrefPayload(ref=pref.ref, rkpr=pref.rkpr)
        self._wired_send(requester, DeregAckMsg(
            mh=mh, seq=seq, found=True, pref=payload,
            extra_state_bytes=extra_bytes))
        self.instr.recorder.record(self.sim.now, "handoff_out", self.node_id,
                                   mh=mh, to=requester)
        self.instr.metrics.incr("handoffs_out", node=self.node_id)

    def _handoff_extra_bytes(self, mh: NodeId) -> int:
        """Extra per-MH state shipped during hand-off.

        RDP hands over only the pref (paper, Section 5: "except for the
        proxy reference ... no other residue need be kept").  The
        I-TCP-style baseline overrides this.
        """
        return 0

    def _on_deregack(self, msg: DeregAckMsg) -> None:
        mh = msg.mh
        record = self._incoming.get(mh)
        if not msg.found:
            if record is None:
                self.instr.metrics.incr("stale_deregacks", node=self.node_id)
                return
            record.outstanding.discard(msg.seq)
            if record.outstanding:
                # Another dereg of ours is still unanswered; ownership may
                # yet arrive — keep the acquisition open.
                self.instr.metrics.incr("deregack_negative_waiting",
                                        node=self.node_id)
                return
            if record.fallbacks:
                # The announced station never had the state (its greet
                # was lost); chase the MH's last confirmed owner instead.
                target, record.fallbacks = record.fallbacks[0], record.fallbacks[1:]
                record.old_mss = target   # current chase target
                record.outstanding.add(record.seq)
                self.instr.metrics.incr("handoff_fallback_deregs",
                                        node=self.node_id)
                self._wired_send(target, DeregMsg(mh=mh, seq=record.seq))
                return
            del self._incoming[mh]
            self.instr.metrics.incr("handoffs_aborted", node=self.node_id)
            failures_key = (mh, record.seq)
            failures = self._failed_acquisitions.get(failures_key, 0) + 1
            self._failed_acquisitions[failures_key] = failures
            if mh in self.local_mhs:
                # Re-registered locally in the meantime (reactivation):
                # we can serve the queue from our own state.
                self._flush_pending_deregs(mh)
            elif ((record.register_on_failure or failures >= 2)
                  and self._host_in_cell(mh)):
                # Nobody answered across a full chase (twice, for normal
                # greets) and the MH is physically here: the state is
                # presumed destroyed (MSS crash) — register it fresh.
                # The in-cell check keeps superseded chases of an MH that
                # moved on (and is registered elsewhere) from forking the
                # registration.
                self.instr.metrics.incr("blind_re_registrations",
                                        node=self.node_id)
                self._failed_acquisitions.pop(failures_key, None)
                self._register(mh, record.seq, how="blind")
                self._flush_pending_deregs(mh)
            else:
                self._reject_pending_deregs(mh)
            return
        if mh in self.local_mhs:
            # We already own newer state for this MH (bounce or
            # reactivation re-registration); the late deregack carries an
            # older fork of the custody chain — installing it would
            # resurrect stale proxy references.
            if record is not None:
                record.outstanding.discard(msg.seq)
                if not record.outstanding:
                    del self._incoming[mh]
            self.instr.metrics.incr("late_deregacks_ignored", node=self.node_id)
            self._flush_pending_deregs(mh)
            return
        if record is None:
            # With per-acquisition response tracking, a found=True reply
            # without an open acquisition can only be a *second* surrender
            # — a stale fork of the custody chain (the live pref moved on
            # through us already).  Installing it would resurrect dead
            # proxy references.
            self.instr.metrics.incr("stale_custody_forks_dropped",
                                    node=self.node_id)
            return
        del self._incoming[mh]
        reg_seq = max(record.seq, msg.seq)
        pref = self.prefs.install(mh, msg.pref.ref, msg.pref.rkpr)
        self._register(mh, reg_seq, how="handoff")
        self._install_handoff_state(msg)
        if record is not None:
            duration = self.sim.now - record.started_at
            self.instr.metrics.observe("handoff_duration", duration)
            self.instr.recorder.record(
                self.sim.now, "handoff_done", self.node_id,
                mh=mh, old=record.old_mss, duration=duration,
                proxy_id=(pref.ref.proxy_id if pref.ref else None))
        self.instr.metrics.incr("handoffs_completed", node=self.node_id)
        if pref.ref is not None:
            self._send_update_currentloc(mh, pref.ref)
        self._flush_pending_deregs(mh)
        self._maybe_migrate_proxy(mh)

    def _install_handoff_state(self, msg: DeregAckMsg) -> None:
        """Hook: baselines that ship more than the pref install it here."""

    def _flush_pending_deregs(self, mh: NodeId) -> None:
        """Serve every deferred hand-off request for *mh*.

        All entries must be answered: stale ones get rejected, the live
        one receives the state, and anything queued behind a surrender is
        told "not found" so the requester aborts (the MH has moved on and
        its greet retries re-drive the chase).  Leaving an entry queued
        forever deadlocks the custody chain.
        """
        while True:
            waiting = self._pending_deregs.get(mh)
            if not waiting:
                return
            pref = self.prefs.get(mh)
            if mh in self._incoming or (pref is not None and pref.creating):
                return
            requester, seq = waiting.pop(0)
            if not waiting:
                del self._pending_deregs[mh]
            self._do_deregister(mh, requester, seq)

    def _reject_pending_deregs(self, mh: NodeId) -> None:
        for requester, seq in self._pending_deregs.pop(mh, []):
            self._wired_send(requester, DeregAckMsg(mh=mh, seq=seq,
                                                    found=False))

    # -- requests -------------------------------------------------------------

    def _on_request(self, msg: RequestMsg) -> None:
        mh = msg.mh
        if mh not in self.local_mhs:
            self.instr.metrics.incr("requests_from_unregistered", node=self.node_id)
            self._maybe_nack_registration(mh)
            return
        self.instr.metrics.incr("requests_accepted", node=self.node_id)
        pref = self.prefs.ensure(mh)
        # Any new request invalidates a pending Ready-to-Kill-pref
        # (Section 3.3): the existing proxy will serve this request too.
        pref.rkpr = False
        if pref.creating:
            self._creation_queue.setdefault(mh, []).append(msg)
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
        if mh in self._migrations_inflight or mh not in self.local_mhs:
            return
        pref = self.prefs.get(mh)
        if pref is None or pref.ref is None or pref.creating:
            return
        if pref.ref.mss == self.node_id:
            return
        if distance_fn(self.node_id, pref.ref.mss) < threshold:
            return
        new_proxy_id = ProxyId(f"px{self.sim.ids.proxy()}")
        self._migrations_inflight.add(mh)
        self.instr.metrics.incr("proxy_migrations_started", node=self.node_id)
        self._wired_send(pref.ref.mss, ProxyMigrateRequestMsg(
            mh=mh, proxy_id=pref.ref.proxy_id, new_proxy_id=new_proxy_id))

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
        self.sim.schedule(self.config.stub_ttl, self._expire_stub,
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
        self._migrations_inflight.discard(msg.mh)
        if msg.state is None:
            return  # the proxy was gone; nothing moved
        proxy = Proxy(
            self.sim, self, msg.mh, msg.new_proxy_id, self.instr,
            send_server_acks=self.config.send_server_acks,
            ack_timeout=self.config.proxy_ack_timeout,
            custody_ttl=self.config.proxy_custody_ttl,
        )
        proxy.import_state(msg.state)
        self.proxies[msg.new_proxy_id] = proxy
        self.instr.metrics.incr("proxies_moved_in", node=self.node_id)
        if msg.mh in self.local_mhs:
            pref = self.prefs.ensure(msg.mh)
            pref.ref = proxy.ref
        proxy.after_relocation()

    def _expire_stub(self, proxy_id: ProxyId) -> None:
        self._proxy_stubs.pop(proxy_id, None)

    def _maybe_nack_registration(self, mh: NodeId) -> None:
        """Beyond the paper's no-failure model: after a crash/restart an
        MSS receives traffic from MHs it does not know.  Nack them so
        they re-register — but never while a hand-off could explain the
        unknown state (the registration is already on its way then)."""
        if mh in self._deregistered or mh in self._incoming:
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

        While down the station drops every wired/wireless arrival and
        sends nothing; frames addressed to it on a reliable fabric are
        retransmitted by their senders across the outage.  Idempotent.
        """
        if self.down:
            return
        self.down = True
        self.wired.set_down(self.node_id)
        dropped = self._inbox.drop_all()
        self.instr.metrics.incr("mss_crashes", node=self.node_id)
        self.instr.recorder.record(self.sim.now, "mss_crash", self.node_id,
                                   inbox_dropped=dropped)
        self.local_mhs.clear()
        self.prefs = PrefTable()
        self.proxies.clear()
        self._incoming.clear()
        self._pending_deregs.clear()
        self._deregistered.clear()
        self._creation_queue.clear()
        self._reg_seqs.clear()
        self._retained.clear()
        self._deferred_updates.clear()
        for entry in self._wireless_pending.values():
            entry[2].cancel()
        self._wireless_pending.clear()

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
        if mh not in self.local_mhs:
            self.instr.metrics.incr("proxy_gone_for_absent_mh", node=self.node_id)
            return
        pref = self.prefs.ensure(mh)
        if pref.ref is not None and pref.ref.proxy_id == msg.proxy_id:
            pref.clear_proxy()
            self.instr.metrics.incr("prefs_cleared_dangling", node=self.node_id)
        # Re-drive the request through the normal path (a new proxy will
        # be created if the pref is now empty).
        self._on_request(RequestMsg(mh=mh, request_id=msg.request_id,
                                    service=msg.service, payload=msg.payload))

    def _on_proxy_created(self, msg: ProxyCreatedMsg) -> None:
        mh = msg.mh
        pref = self.prefs.get(mh)
        if pref is None or mh not in self.local_mhs:
            # The MH migrated away while the remote creation was in
            # flight; the deferred dereg path should have prevented this.
            self.instr.metrics.incr("proxy_created_for_absent_mh", node=self.node_id)
            return
        pref.ref = msg.ref
        pref.creating = False
        for queued in self._creation_queue.pop(mh, []):
            self._forward_request(msg.ref, queued)
        self._flush_pending_deregs(mh)

    # -- results and acks ------------------------------------------------------

    def _record_adoption(self, mh: NodeId, proxy_id: str, how: str) -> None:
        """Trace a pref-ref (re)designation outside the hand-off path.

        The oracle's single-proxy checker reads these rows as the
        authoritative 'this proxy serves this MH now' signal — after an
        MSS-amnesia fork the custody chain can heal in the *older*
        proxy's favour, and without this row the healing looks like a
        superseded proxy going rogue.
        """
        if self.instr.recorder.wants("proxy_adopt"):
            self.instr.recorder.record(self.sim.now, "proxy_adopt",
                                       self.node_id, mh=mh,
                                       proxy_id=proxy_id, how=how)

    def _on_result_forward(self, msg: ResultForwardMsg) -> None:
        mh = msg.mh
        if mh not in self.local_mhs:
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
        pref = self.prefs.ensure(mh)
        foreign = False
        if pref.ref is None:
            pref.ref = msg.proxy_ref
            self.instr.metrics.incr("prefs_rebuilt", node=self.node_id)
            self._record_adoption(mh, msg.proxy_ref.proxy_id, "rebuild")
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
                pref.ref = msg.proxy_ref
                self.instr.metrics.incr("prefs_refreshed", node=self.node_id)
                self._record_adoption(mh, msg.proxy_ref.proxy_id, "refresh")
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
            self._retained.setdefault(mh, {})[msg.request_id] = wireless_result
            self.instr.metrics.incr("results_retained", node=self.node_id)
            return
        self._downlink(mh, wireless_result)
        if not foreign:
            self._arm_wireless_redelivery(mh, wireless_result)

    # -- wireless-leg redelivery ------------------------------------------------

    def _arm_wireless_redelivery(self, mh: NodeId,
                                 message: WirelessResultMsg) -> None:
        """Watch one downlinked result until its Ack comes back.

        The respMss covers radio fades locally: the proxy's end-to-end
        ``proxy_ack_timeout`` still backstops everything, but it is slow
        by design (it crosses the wired fabric); this loop retries the
        one hop that actually failed.  Backoff doubles per attempt,
        capped at 4x the base timeout, with a bounded attempt budget.
        """
        if self.config.wireless_ack_timeout is None:
            return
        key = (mh, message.request_id)
        entry = self._wireless_pending.get(key)
        if entry is not None:
            # A fresh forward supersedes the old frame (new delivery id)
            # and restarts the local schedule.
            entry[2].cancel()
        event = self.sim.schedule(self.config.wireless_ack_timeout,
                                  self._wireless_redeliver, mh,
                                  message.request_id,
                                  label="mss:wl-redeliver")
        self._wireless_pending[key] = [message, 0, event]

    def _wireless_redeliver(self, mh: NodeId, request_id: RequestId) -> None:
        key = (mh, request_id)
        entry = self._wireless_pending.get(key)
        if entry is None or self.down:
            return
        message, attempts, _event = entry
        pref = self.prefs.get(mh)
        if (mh not in self.local_mhs or pref is None
                or request_id not in pref.outstanding):
            # Acked, handed off, or gone: nothing left to redeliver.
            del self._wireless_pending[key]
            return
        attempts += 1
        entry[1] = attempts
        # The metrics bridge exports this as rdp_wireless_redeliveries_total.
        self.instr.metrics.incr("wireless_redeliveries", node=self.node_id)
        if self.instr.recorder.wants("wireless_redelivery"):
            self.instr.recorder.record(
                self.sim.now, "wireless_redelivery", self.node_id,
                mh=mh, request_id=request_id, attempt=attempts)
        self._downlink(mh, message)
        if attempts >= self.config.wireless_redelivery_attempts:
            # Budget exhausted: the proxy's end-to-end timeout takes over.
            del self._wireless_pending[key]
            return
        base = self.config.wireless_ack_timeout
        delay = min(base * (2 ** attempts), 4 * base)
        entry[2] = self.sim.schedule(delay, self._wireless_redeliver, mh,
                                     request_id, label="mss:wl-redeliver")

    def _cancel_wireless_redelivery(self, mh: NodeId,
                                    request_id: Optional[RequestId] = None) -> None:
        for key in [k for k in self._wireless_pending
                    if k[0] == mh and (request_id is None or k[1] == request_id)]:
            self._wireless_pending.pop(key)[2].cancel()

    def _host_in_cell(self, mh: NodeId) -> bool:
        """Radio-level knowledge: is the MH physically in our cell?"""
        try:
            host = self.wireless.host(mh)
        except Exception:
            return False
        return host.current_cell == self.cell_id

    def _host_unreachable(self, mh: NodeId) -> bool:
        """Footnote 3's 'able to detect that the target MH is currently
        inactive' — modelled as radio-level knowledge of the host."""
        try:
            host = self.wireless.host(mh)
        except Exception:
            return False
        from ..types import MhState

        return host.state is not MhState.ACTIVE or host.current_cell != self.cell_id

    def _on_del_pref_notice(self, msg: DelPrefNoticeMsg) -> None:
        mh = msg.mh
        if mh not in self.local_mhs:
            self.instr.metrics.incr("del_pref_for_absent_mh", node=self.node_id)
            return
        if self.config.persistent_proxies:
            return
        pref = self.prefs.ensure(mh)
        if pref.ref is None:
            pref.ref = msg.proxy_ref
            self.instr.metrics.incr("prefs_rebuilt", node=self.node_id)
            self._record_adoption(mh, msg.proxy_ref.proxy_id, "rebuild")
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
        if mh in self._deregistered:
            # The hand-off transfer was already served; this Ack is dead
            # (paper, Section 3.1) — the proxy will retransmit instead.
            self.instr.metrics.incr("acks_ignored_after_dereg", node=self.node_id)
            self.instr.recorder.record(self.sim.now, "ack_ignored", self.node_id,
                                       mh=mh, request_id=msg.request_id)
            return
        if mh not in self.local_mhs:
            self.instr.metrics.incr("acks_from_unknown_mh", node=self.node_id)
            self._maybe_nack_registration(mh)
            return
        pref = self.prefs.ensure(mh)
        pref.outstanding.discard(msg.request_id)
        self._cancel_wireless_redelivery(mh, msg.request_id)
        retained = self._retained.get(mh)
        if retained is not None:
            retained.pop(msg.request_id, None)
            if not retained:
                del self._retained[mh]
                # All retained results acknowledged: release the deferred
                # location update right after this Ack's forward so the
                # proxy (causal order) sees the Acks first.
                self.sim.schedule(0.0, self._flush_deferred_update, mh,
                                  label="mss:retain-release")
        foreign = pref.foreign.pop(msg.request_id, None)
        if foreign is not None:
            # Ack for a delivery forwarded by a proxy that does not own
            # this pref (see _on_result_forward).  Route it straight back
            # with removal permission: a proxy in that position has no
            # future here, and its own live-requests guard protects it if
            # more of its deliveries are still unacknowledged.
            self.instr.metrics.incr("acks_forwarded", node=self.node_id)
            self._wired_send(foreign.mss, AckForwardMsg(
                mh=mh, proxy_id=foreign.proxy_id,
                request_id=msg.request_id, delivery_id=msg.delivery_id,
                del_proxy=True))
            return
        if pref.ref is None:
            self.instr.metrics.incr("acks_without_pref", node=self.node_id)
            return
        ref = pref.ref
        del_proxy = bool(pref.rkpr and not pref.outstanding and not pref.creating)
        if del_proxy:
            pref.clear_proxy()
        self.instr.metrics.incr("acks_forwarded", node=self.node_id)
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
