"""The mobile host (MH) state machine.

Implements the paper's MH-side rules (Section 2):

* joins the system with ``join``, leaves with ``leave`` (only when every
  received result has been acknowledged — assumption 6);
* sends ``greet(oldMss)`` on entering a new cell and on reactivation;
* while active, acknowledges every result received from its respMss —
  including retransmissions (assumption 4);
* detects duplicate results via the delivery id (assumption 5);
* after greeting a new MSS, talks only to that MSS: un-sent Acks for
  results received in the previous cell are dropped (the proxy will
  retransmit).

The paper abstracts how an MH learns that its registration took effect;
here the MSS confirms with a small ``registered`` message, and the MH
retries ``greet``/``join`` on a timer until confirmed, which keeps the
protocol live under lossy wireless and is free when the radio is reliable.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..core.protocol import (
    AckMsg,
    GreetMsg,
    JoinMsg,
    LeaveMsg,
    RegisteredMsg,
    ReRegisterMsg,
    RequestMsg,
    WirelessResultMsg,
    is_subscription,
)
from ..errors import ProtocolError
from ..instruments import Instruments
from ..net.message import Message
from ..net.wireless import WirelessChannel
from ..engine import Engine
from ..sim.process import Retrier, retry_policy
from ..types import CellId, MhState, NodeId, RequestId, mh_id
from .clientlog import ClientLog


class MobileHost:
    """One mobile host."""

    def __init__(
        self,
        sim: Engine,
        name: str,
        wireless: WirelessChannel,
        instruments: Optional[Instruments] = None,
        greet_retry_interval: float = 1.0,
        greet_backoff_cap: Optional[float] = None,
        ack_delay: float = 0.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.node_id = mh_id(name)
        self.wireless = wireless
        self.instr = instruments or Instruments.disabled()
        self.ack_delay = ack_delay

        self.state: MhState = MhState.LEFT
        self.current_cell: Optional[CellId] = None
        self.registered = False
        self.resp_mss: Optional[NodeId] = None
        # The MSS this host last announced itself to (join or greet) — the
        # "MSS responsible for the cell which the MH is leaving" of the
        # next greet.  Updated when the announcement is sent, not when it
        # is confirmed.
        self._announced_mss: Optional[NodeId] = None
        # The MSS of the last *confirmed* registration: the custody
        # fallback when a lost greet made the announcement pointer lie.
        self._confirmed_mss: Optional[NodeId] = None
        # Recent announcement targets (newest first): more custody
        # candidates for the case where a greet arrived but its
        # confirmation was lost (the owner is an *unconfirmed* station).
        self._announce_history: List[NodeId] = []
        # Registration incarnation: bumped for each new announcement;
        # retransmissions of the same announcement reuse it.
        self._reg_seq = 0
        self._announcement: Tuple[Optional[NodeId], tuple, int] = (None, (), 0)
        # Durable log: survives crash() where everything below does not.
        self.log = ClientLog()
        self._seen_deliveries: Set[int] = set()
        self._delivered_requests: Set[RequestId] = set()
        self._unacked: Set[RequestId] = set()
        self._queued_requests: List[RequestMsg] = []
        self._pending_ack_events: List[Any] = []
        # Retransmissions of the current announcement, keyed by this
        # host.  With a backoff cap the interval doubles per attempt up
        # to the cap — bounded pressure on a blacked-out cell, yet
        # bounded recovery latency after the blackout; without one it
        # stays fixed; an interval <= 0 turns the retries off.
        self._greet_retry = Retrier(
            sim, retry_policy(greet_retry_interval, greet_backoff_cap),
            self._retry_registration, "mh:greet-retry")
        self.result_listeners: List[Callable[[RequestId, Any], None]] = []
        self.registration_listeners: List[Callable[[], None]] = []
        self.deliveries: List[Tuple[float, RequestId, Any]] = []
        self.duplicate_deliveries = 0
        # Pre-bound observability handles: system-wide delivery outcomes
        # (one shared family; resolved once per host, bumped per result).
        outcomes = self.instr.hub.counter(
            "rdp_mh_delivery_outcomes_total",
            "Results arriving at mobile hosts, by dedup outcome",
            labels=("outcome",))
        self._obs_fresh_delivery = outcomes.labels("fresh")
        self._obs_duplicate_delivery = outcomes.labels("duplicate")

        wireless.register_host(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MH {self.name} cell={self.current_cell} {self.state.value}>"

    # -- life-cycle -------------------------------------------------------------

    def join(self, cell: CellId) -> None:
        """Enter the system in *cell*."""
        if self.state is not MhState.LEFT:
            raise ProtocolError(f"{self.node_id} already joined")
        self.current_cell = cell
        self.state = MhState.ACTIVE
        self.registered = False
        self.instr.recorder.record(self.sim.now, "join", self.node_id, cell=cell)
        self._send_registration()

    def leave(self) -> None:
        """Leave the system (assumption 6: everything must be acked)."""
        if self.state is not MhState.ACTIVE:
            raise ProtocolError(f"{self.node_id} can only leave while active")
        if self._unacked:
            raise ProtocolError(
                f"{self.node_id} has unacknowledged results: {sorted(self._unacked)}")
        self.wireless.uplink(self, LeaveMsg(mh=self.node_id))
        self.state = MhState.LEFT
        self.registered = False
        self._greet_retry.cancel(self.node_id)
        self.instr.recorder.record(self.sim.now, "leave", self.node_id)

    def migrate_to(self, cell: CellId) -> None:
        """Physically move to *cell*; greet the new MSS when active."""
        if self.state is MhState.LEFT:
            raise ProtocolError(f"{self.node_id} is not in the system")
        if cell == self.current_cell:
            return
        old_cell = self.current_cell
        self.current_cell = cell
        self.instr.recorder.record(self.sim.now, "migrate", self.node_id,
                                   old=old_cell, new=cell, state=self.state.value)
        self.instr.metrics.incr("mh_migrations", node=self.node_id)
        if self.state in (MhState.INACTIVE, MhState.DOZING, MhState.CRASHED):
            # Radio is off: the move is physical only; the protocol-side
            # hand-off happens on activate/wake/recover.
            return
        # The radio retunes while switching cells: under a wireless fault
        # plan this opens the per-host hand-off blackout window.
        self.wireless.note_handoff(self.node_id)
        # After announcing itself to the new MSS the MH must not reply to
        # any other MSS: pending (delayed) Acks for the old cell die here.
        self._drop_pending_acks()
        self.registered = False
        self._send_registration()

    def deactivate(self) -> None:
        """Power save / switched off: no sending, no receiving."""
        if self.state is not MhState.ACTIVE:
            raise ProtocolError(f"{self.node_id} cannot deactivate while {self.state}")
        self.state = MhState.INACTIVE
        self.registered = False
        self._greet_retry.cancel(self.node_id)
        self._drop_pending_acks()
        self.instr.recorder.record(self.sim.now, "deactivate", self.node_id,
                                   cell=self.current_cell)
        self.instr.metrics.incr("mh_deactivations", node=self.node_id)

    def activate(self) -> None:
        """Wake up — possibly in a different cell than where we slept."""
        if self.state is not MhState.INACTIVE:
            raise ProtocolError(f"{self.node_id} cannot activate while {self.state}")
        self.state = MhState.ACTIVE
        self.instr.recorder.record(self.sim.now, "activate", self.node_id,
                                   cell=self.current_cell)
        self.instr.metrics.incr("mh_activations", node=self.node_id)
        self._send_registration()

    def doze(self) -> None:
        """Radio off to save power; all protocol state is kept.

        Unlike :meth:`deactivate` (the paper's planned power-down), doze
        models an OS-driven sleep that can hit with requests in flight —
        the durable proxy custody is what makes that safe.
        """
        if self.state is not MhState.ACTIVE:
            raise ProtocolError(f"{self.node_id} cannot doze while {self.state}")
        self.state = MhState.DOZING
        self.registered = False
        self._greet_retry.cancel(self.node_id)
        self._drop_pending_acks()
        self.instr.recorder.record(self.sim.now, "mh_doze", self.node_id,
                                   cell=self.current_cell)
        self.instr.metrics.incr("mh_dozes", node=self.node_id)

    def wake(self) -> None:
        """Wake from doze and re-register in the current cell."""
        if self.state is not MhState.DOZING:
            raise ProtocolError(f"{self.node_id} cannot wake while {self.state}")
        self.state = MhState.ACTIVE
        self.instr.recorder.record(self.sim.now, "mh_wake", self.node_id,
                                   cell=self.current_cell)
        self.instr.metrics.incr("mh_wakes", node=self.node_id)
        self._send_registration()

    def crash(self) -> None:
        """Lose all volatile state; only the durable client log survives.

        The host goes dark until :meth:`recover`.  In-flight downlink
        frames addressed to it will be dropped by the channel.
        """
        if self.state in (MhState.LEFT, MhState.CRASHED):
            raise ProtocolError(f"{self.node_id} cannot crash while {self.state}")
        self.state = MhState.CRASHED
        self.registered = False
        self.resp_mss = None
        self._announced_mss = None
        self._confirmed_mss = None
        self._announce_history = []
        self._reg_seq = 0
        self._announcement = (None, (), 0)
        self._seen_deliveries = set()
        self._delivered_requests = set()
        self._queued_requests = []
        self._greet_retry.cancel(self.node_id)
        for event in self._pending_ack_events:
            event.cancel()
        self._pending_ack_events = []
        self._unacked = set()
        self.instr.recorder.record(self.sim.now, "mh_crash", self.node_id,
                                   cell=self.current_cell)
        self.instr.metrics.incr("mh_crashes", node=self.node_id)

    def recover(self, cell: CellId, amnesia: bool = False) -> None:
        """Come back up in *cell* and run the recovery handshake.

        Restores the dedup set and registration lineage from the durable
        log, greets the new MSS with a truthful ``old_mss`` (so result
        custody is chased across the hand-off even when *cell* differs
        from where we crashed), and replays unanswered requests — the
        proxy deduplicates them by request id and re-forwards or
        re-delivers the held results.

        ``amnesia=True`` wipes the log first: a client with no durable
        storage, kept for AN16's ``no_recovery`` arm, which quantifies
        what the log buys.
        """
        if self.state is not MhState.CRASHED:
            raise ProtocolError(f"{self.node_id} cannot recover while {self.state}")
        if amnesia:
            self.log.wipe()
        self.current_cell = cell
        self.state = MhState.ACTIVE
        # Rebuild what the log can vouch for.
        self._reg_seq = self.log.reg_seq
        self._delivered_requests = set(self.log.delivered_ids())
        self._confirmed_mss = self.log.confirmed_mss
        # The greet's old_mss must be the *last announced* MSS — we may
        # have handed our state there even if its confirmation never
        # reached us before the crash; the confirmed MSS rides along in
        # the candidate list for the custody chase.
        announced = self.log.announced
        self._announced_mss = (announced[0] if announced
                               else self.log.confirmed_mss)
        self._announce_history = announced
        replay = [RequestMsg(mh=self.node_id, request_id=r.request_id,
                             service=r.service, payload=r.payload)
                  for r in self.log.unanswered()]
        self._queued_requests = replay
        self.instr.recorder.record(self.sim.now, "mh_recover", self.node_id,
                                   cell=cell, replayed=len(replay),
                                   dedup=len(self._delivered_requests))
        # The metrics bridge exports this as rdp_mh_recoveries_total.
        self.instr.metrics.incr("mh_recoveries", node=self.node_id)
        self._send_registration()

    # -- registration -------------------------------------------------------------

    def _send_registration(self) -> None:
        """Announce a *new* incarnation to the current cell's MSS."""
        if self.state is not MhState.ACTIVE or self.current_cell is None:
            return
        self._reg_seq += 1
        # Pin (old, candidates, seq) for this incarnation so that
        # retransmissions repeat the same announcement even if our
        # bookkeeping moves on.  Candidates: recent announcement targets
        # plus the last confirmed respMss, newest first, deduplicated.
        candidates = []
        for node in (*self._announce_history, self._confirmed_mss):
            if (node is not None and node != self._announced_mss
                    and node not in candidates):
                candidates.append(node)
        self._announcement = (self._announced_mss, tuple(candidates[:3]),
                              self._reg_seq)
        self.log.note_registration(self._reg_seq)
        station = self.wireless.station_of(self.current_cell)
        self._announced_mss = station.node_id
        self._announce_history.insert(0, station.node_id)
        del self._announce_history[3:]
        # Write-ahead: flash knows the greet target before the radio does.
        self.log.note_announced(station.node_id)
        self._transmit_registration()
        self._greet_retry.arm(self.node_id)

    def _transmit_registration(self) -> None:
        old_mss, candidates, seq = self._announcement
        if old_mss is None:
            self.wireless.uplink(self, JoinMsg(mh=self.node_id, seq=seq))
        else:
            self.wireless.uplink(self, GreetMsg(
                mh=self.node_id, old_mss=old_mss, seq=seq,
                old_candidates=candidates))

    def _retry_registration(self, _key: NodeId, _attempt: int) -> bool:
        """Retransmit the *same* incarnation until confirmed."""
        if self.registered or self.state is not MhState.ACTIVE:
            return False
        self.instr.metrics.incr("mh_registration_retries", node=self.node_id)
        self._transmit_registration()
        return True

    # -- requests -------------------------------------------------------------------

    def new_request_id(self) -> RequestId:
        return RequestId(f"{self.name}-r{self.sim.ids.request()}")

    def send_request(self, service: str, payload: Any = None,
                     request_id: Optional[RequestId] = None) -> RequestId:
        """Issue (or queue, while unregistered) one request."""
        if self.state is not MhState.ACTIVE:
            raise ProtocolError(f"{self.node_id} cannot send requests while {self.state}")
        rid = request_id or self.new_request_id()
        if self.instr.recorder.wants("request"):
            # Only a subscription's row carries the flag (NoLostResult exempts it).
            flag = {"subscription": True} if is_subscription(payload) else {}
            self.instr.recorder.record(self.sim.now, "request", self.node_id,
                                       request_id=rid, service=service, **flag)
        msg = RequestMsg(mh=self.node_id, request_id=rid,
                         service=service, payload=payload)
        self.log.note_issued(rid, service, payload)
        if not self.registered:
            self._queued_requests.append(msg)
        else:
            self.wireless.uplink(self, msg)
        self.instr.metrics.incr("mh_requests_sent", node=self.node_id)
        return rid

    def resend_request(self, request_id: RequestId, service: str,
                       payload: Any = None) -> None:
        """Client-driven request retransmission (lossy-uplink recovery);
        the proxy deduplicates by request id."""
        if self.state is not MhState.ACTIVE or not self.registered:
            return
        self.instr.metrics.incr("mh_request_retries", node=self.node_id)
        self.wireless.uplink(self, RequestMsg(
            mh=self.node_id, request_id=request_id,
            service=service, payload=payload))

    # -- reception --------------------------------------------------------------------

    def on_wireless_message(self, message: Message) -> None:
        if isinstance(message, RegisteredMsg):
            self._on_registered(message)
        elif isinstance(message, WirelessResultMsg):
            self._on_result(message)
        elif isinstance(message, ReRegisterMsg):
            self._on_reregister()

    def _on_reregister(self) -> None:
        """The MSS does not know us (it may have crashed and restarted):
        make sure a registration reaches it."""
        if self.state is not MhState.ACTIVE:
            return
        self.instr.metrics.incr("mh_reregistrations", node=self.node_id)
        if not self.registered:
            # An announcement is already in flight (e.g. the greet was
            # lost and the nack raced its retry): retransmit the SAME
            # incarnation.  Starting a new one here would carry a stale
            # `old` pointer and fake a reactivation at the new cell,
            # bypassing the hand-off.
            self._transmit_registration()
            self._greet_retry.restart(self.node_id)
            return
        self.registered = False
        self._send_registration()

    def _on_registered(self, message: RegisteredMsg) -> None:
        if message.seq != self._reg_seq:
            # Confirmation of a superseded incarnation; the current one is
            # still in flight (its retries continue).
            self.instr.metrics.incr("mh_stale_registered", node=self.node_id)
            return
        self.registered = True
        self.resp_mss = message.src
        self._confirmed_mss = message.src
        self.log.note_confirmed(message.src)
        self._greet_retry.cancel(self.node_id)
        queued, self._queued_requests = self._queued_requests, []
        for msg in queued:
            self.wireless.uplink(self, msg)
        for listener in list(self.registration_listeners):
            listener()

    def _on_result(self, message: WirelessResultMsg) -> None:
        # Dedup by delivery id (assumption 5) AND by request id: after an
        # MSS crash re-homes the chain, an orphaned older proxy can still
        # deliver its own copy of a result under a fresh delivery id — the
        # application must see each request's result exactly once.
        duplicate = (message.delivery_id in self._seen_deliveries
                     or message.request_id in self._delivered_requests)
        if duplicate:
            self.duplicate_deliveries += 1
            self._obs_duplicate_delivery.inc()
            self.instr.metrics.incr("mh_duplicate_results", node=self.node_id)
        else:
            self._obs_fresh_delivery.inc()
            self._seen_deliveries.add(message.delivery_id)
            self._delivered_requests.add(message.request_id)
            self.log.note_delivered(message.request_id)
            self.deliveries.append((self.sim.now, message.request_id, message.payload))
            if self.instr.recorder.wants("deliver"):
                self.instr.recorder.record(self.sim.now, "deliver", self.node_id,
                                           request_id=message.request_id,
                                           delivery_id=message.delivery_id)
            self.instr.metrics.incr("mh_results_delivered", node=self.node_id)
        # Assumption 4: every message from the respMss is acknowledged,
        # duplicates included — the proxy needs the Ack to stop re-sending.
        # The Ack leaves before the application reacts, so follow-up
        # requests never overtake it on the uplink.
        self._unacked.add(message.request_id)
        ack = AckMsg(mh=self.node_id, request_id=message.request_id,
                     delivery_id=message.delivery_id)
        if self.ack_delay > 0:
            event = self.sim.schedule(self.ack_delay, self._send_ack, ack,
                                      label="mh:ack")
            self._pending_ack_events.append(event)
        else:
            self._send_ack(ack)
        if not duplicate:
            for listener in list(self.result_listeners):
                listener(message.request_id, message.payload)

    def _send_ack(self, ack: AckMsg) -> None:
        if self.state is not MhState.ACTIVE:
            return
        self._unacked.discard(ack.request_id)
        self.instr.metrics.incr("mh_acks_sent", node=self.node_id)
        self.wireless.uplink(self, ack)

    def _drop_pending_acks(self) -> None:
        if not self._pending_ack_events:
            return
        for event in self._pending_ack_events:
            event.cancel()
        self.instr.metrics.incr("mh_acks_dropped",
                                amount=len(self._pending_ack_events),
                                node=self.node_id)
        self._pending_ack_events.clear()
        self._unacked.clear()
