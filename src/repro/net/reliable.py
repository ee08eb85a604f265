"""Reliable link layer for the wired fabric.

When a :class:`~repro.net.faults.FaultPlan` makes the inter-MSS network
lossy, the causal ordering layer above it wedges: SES parks any message
whose constraints name a lost predecessor, forever.  The link transport
restores assumption 1 the way QRPC and I-TCP-style indirection do — an
acknowledged, retransmitting hop per link.

One transport implements that contract (``docs/TRANSPORT.md``):
:class:`ReliableLink`, a **selective-repeat** transport: a sliding
per-``(src, dst)`` send window (:class:`SendWindow`, default 32 frames),
cumulative + selective acknowledgements piggybacked on every
:class:`LinkAckMsg` (:class:`AckRanges`), per-link adaptive
retransmission timeouts via Jacobson/Karels SRTT/RTTVAR estimation with
Karn's rule (:class:`RtoEstimator`), fast retransmit on duplicate acks,
and coalescing of same-destination messages queued in the same
simulation tick into one wire frame.

It sits *below* the ordering layer: retransmission re-sends the same
stamped message, so ``on_send`` runs exactly once per message and the
SES stamps stay valid.  Link acks are consumed here and never reach the
ordering layer or the protocol trace (no ``send``/``recv`` rows), so
the PR-1 causal-order checker sees exactly the one logical send and the
one post-dedup delivery.  Frames may be delivered to the ordering layer
out of sequence-number order — the SES hold-back buffer above is what
restores causal order, exactly as it does for latency inversions.

With no fault plan and no explicit opt-in no transport is built at all
and :class:`~repro.net.wired.WiredNetwork` keeps its original lossless
single-hop path — zero overhead when off.

A transport is plugged into a :class:`LinkPort`; the simulated
:class:`~repro.net.wired.WiredNetwork` is one, the UDP socket of
:class:`~repro.live.transport.LiveWiredTransport` the other — the live
backend runs this same state machine, not a copy of it.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import (
    ClassVar,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
)

from ..engine import Engine
from ..errors import ConfigError
from ..obs.registry import LATENCY_BUCKETS, Counter
from ..sim.event import Event
from ..sim.process import RetryPolicy
from ..types import NodeId
from .causal import StampedMessage
from .message import Message
from .monitor import NetworkMonitor

#: One directed transport channel.
Channel = Tuple[NodeId, NodeId]

#: Duplicate-ack threshold for fast retransmit: once this many acks have
#: arrived that cover sequence numbers *above* a still-unacked frame,
#: the frame is presumed lost and retransmitted without waiting for its
#: timer (the classic TCP heuristic, applied per link frame).
DUPACK_THRESHOLD = 3


class RtoEstimator:
    """Jacobson/Karels adaptive retransmission timeout for one link.

    ``RTO = SRTT + 4 * RTTVAR`` with the standard gains (alpha = 1/8,
    beta = 1/4).  The first sample seeds ``SRTT = R`` and
    ``RTTVAR = R / 2``.  :meth:`on_timeout` applies Karn's exponential
    backoff (doubling by default, capped); a fresh sample recomputes the
    RTO from the estimators, which clears the backoff.  Karn's *other*
    rule — never sample a retransmitted frame — is enforced by the
    caller (:meth:`ReliableLink._rtt_sample_ok`), since only the sender
    knows a frame's retransmission history.

    All results are clamped to ``[min_rto, max_rto]``.
    """

    ALPHA = 0.125
    BETA = 0.25
    K = 4.0

    __slots__ = ("initial", "min_rto", "max_rto", "backoff",
                 "srtt", "rttvar", "_rto", "samples")

    def __init__(self, initial: float = 0.25, min_rto: float = 0.02,
                 max_rto: float = 8.0, backoff: float = 2.0) -> None:
        if not 0 < min_rto <= max_rto:
            raise ConfigError(f"bad RTO clamp [{min_rto!r}, {max_rto!r}]")
        if backoff < 1.0:
            raise ConfigError(f"RTO backoff {backoff!r} must be >= 1")
        self.initial = initial
        self.min_rto = min_rto
        self.max_rto = max_rto
        self.backoff = backoff
        self.srtt: Optional[float] = None
        self.rttvar = 0.0
        self._rto = self._clamp(initial)
        self.samples = 0

    def _clamp(self, value: float) -> float:
        return min(self.max_rto, max(self.min_rto, value))

    @property
    def rto(self) -> float:
        """The current retransmission timeout (clamped, backoff applied)."""
        return self._rto

    def sample(self, rtt: float) -> float:
        """Feed one round-trip measurement; returns the recomputed RTO.

        Recomputing from SRTT/RTTVAR (rather than scaling the current
        value) is what resets any accumulated timeout backoff."""
        if rtt < 0:
            raise ConfigError(f"negative RTT sample {rtt!r}")
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            self.rttvar = ((1.0 - self.BETA) * self.rttvar
                           + self.BETA * abs(self.srtt - rtt))
            self.srtt = (1.0 - self.ALPHA) * self.srtt + self.ALPHA * rtt
        self.samples += 1
        self._rto = self._clamp(self.srtt + self.K * self.rttvar)
        return self._rto

    def on_timeout(self) -> float:
        """Karn backoff: double (cap at ``max_rto``) after a timeout."""
        self._rto = self._clamp(self._rto * self.backoff)
        return self._rto


class AckRanges:
    """Set of received sequence numbers as a floor plus sparse ranges.

    ``floor`` is the highest *cumulatively* covered sequence number
    (every seq <= floor is in the set); above it live disjoint,
    non-adjacent inclusive ``[lo, hi]`` ranges kept sorted.  Memory is
    bounded by the number of reorder gaps, which the sender's window
    bounds in turn: data frames carry the sender's window base, and
    :meth:`advance_floor` retires everything below it (those sequence
    numbers can never be retransmitted again).
    """

    __slots__ = ("floor", "_ranges")

    def __init__(self) -> None:
        self.floor = 0
        self._ranges: List[List[int]] = []

    def __contains__(self, seq: int) -> bool:
        if seq <= self.floor:
            return True
        i = bisect_left(self._ranges, [seq + 1]) - 1
        return i >= 0 and self._ranges[i][0] <= seq <= self._ranges[i][1]

    def add(self, seq: int) -> bool:
        """Insert *seq*; True if it was new, False for a duplicate."""
        if seq in self:
            return False
        if seq == self.floor + 1:
            self.floor = seq
            self._absorb()
            return True
        i = bisect_left(self._ranges, [seq])
        left = i > 0 and self._ranges[i - 1][1] == seq - 1
        right = i < len(self._ranges) and self._ranges[i][0] == seq + 1
        if left and right:
            self._ranges[i - 1][1] = self._ranges[i][1]
            del self._ranges[i]
        elif left:
            self._ranges[i - 1][1] = seq
        elif right:
            self._ranges[i][0] = seq
        else:
            insort(self._ranges, [seq, seq])
        return True

    def advance_floor(self, seq: int) -> None:
        """Cumulatively cover everything up to *seq* (monotone)."""
        if seq <= self.floor:
            return
        self.floor = seq
        while self._ranges and self._ranges[0][1] <= self.floor:
            self._ranges.pop(0)
        if self._ranges and self._ranges[0][0] <= self.floor:
            self._ranges[0][0] = self.floor + 1
        self._absorb()

    def _absorb(self) -> None:
        """Merge ranges now adjacent to the floor into it."""
        while self._ranges and self._ranges[0][0] == self.floor + 1:
            self.floor = self._ranges.pop(0)[1]

    @property
    def cumulative(self) -> int:
        return self.floor

    def ranges(self) -> Tuple[Tuple[int, int], ...]:
        """The sparse ranges above the floor (the SACK blocks)."""
        return tuple((lo, hi) for lo, hi in self._ranges)


@dataclass(slots=True, kw_only=True)
class LinkAckMsg(Message):
    """Transport-level acknowledgement of link frames.

    Internal to the reliable link: consumed before the ordering layer,
    so it never appears in protocol traces and carries no ack obligation
    of its own (acks are never acked — a lost ack is repaired by the
    data frame's retransmission).  ``seq`` names the frame that
    triggered this ack (the RTT-sample anchor); ``cum``/``sacks`` piggyback
    the receiver's complete cumulative + selective state so any one
    surviving ack repairs every earlier loss on the channel.
    """

    kind: ClassVar[str] = "link_ack"

    seq: int = 0
    cum: int = 0
    sacks: Tuple[Tuple[int, int], ...] = ()


@dataclass(slots=True)
class Frame:
    """One wire transmission unit.

    Exactly one of the payload fields is set: ``batch`` (a data frame:
    one or more same-tick messages coalesced) or ``payload`` (a link
    ack).
    ``base`` piggybacks the sender's window base at (re)transmission
    time so the receiver can retire dedup state below it.
    """

    src: NodeId
    dst: NodeId
    seq: int
    payload: Optional[Message] = None  # link acks
    batch: Optional[Tuple[StampedMessage, ...]] = None  # data frames
    base: int = 0

    @property
    def message(self) -> Message:
        """A representative message for labels, traces and fault drops."""
        if self.batch is not None:
            return self.batch[0].message
        assert self.payload is not None
        return self.payload

    def protocol_messages(self) -> Iterator[Message]:
        """Every protocol message this data frame carries."""
        if self.batch is not None:
            for stamped in self.batch:
                yield stamped.message


@dataclass(frozen=True)
class DeliveryFailure:
    """A message abandoned after its frame exhausted the retry budget."""

    time: float
    src: NodeId
    dst: NodeId
    message: Message
    attempts: int


@dataclass(slots=True)
class _Pending:
    """Sender-side state for one unacknowledged frame."""

    frame: Frame
    sent_at: float = 0.0
    attempts: int = 1
    timer: Optional[Event] = None
    retransmitted: bool = False  # Karn's rule: excluded from RTT samples
    dupacks: int = 0


class SendWindow:
    """Sender-side sliding window for one ``(src, dst)`` channel.

    At most ``size`` frames are unacknowledged at once; frames past the
    window wait in ``queue`` and are released as acks (or abandonments)
    free slots.  Sequence numbers are assigned at frame creation, so
    queue order is transmission order.
    """

    __slots__ = ("size", "next_seq", "inflight", "queue", "max_occupancy")

    def __init__(self, size: int) -> None:
        self.size = size
        self.next_seq = 1
        self.inflight: Dict[int, _Pending] = {}
        self.queue: Deque[Frame] = deque()
        self.max_occupancy = 0

    @property
    def base(self) -> int:
        """The lowest unacknowledged sequence number."""
        return min(self.inflight) if self.inflight else self.next_seq

    def allocate(self, src: NodeId, dst: NodeId,
                 batch: Tuple[StampedMessage, ...]) -> Frame:
        frame = Frame(src=src, dst=dst, seq=self.next_seq, batch=batch)
        self.next_seq += 1
        return frame

    def backlog(self) -> int:
        """Frames in custody but not yet acknowledged (in flight or queued)."""
        return len(self.inflight) + len(self.queue)


class LinkPort(Protocol):
    """The wire port a link transport is plugged into: all it uses of
    its owner, so the transport never learns what the wire is made of.

    ``sim`` is the clock and timers (any :class:`~repro.engine.Engine`).
    ``_transmit`` puts a frame on the wire *unreliably* — it may be
    lost, duplicated or delayed — and whatever survives comes back as
    ``on_frame(payload)`` on the transport at the far end; *message* is
    the frame's representative for labels and trace rows, *retransmit*
    marks a repeat.  ``_ordered_arrival`` takes each deduplicated data
    message (once, in any order across frames); ``_delivery_failed``
    takes a frame the transport gave up on after *attempts*
    transmissions.  ``name`` and ``monitor`` are for accounting, and
    ``stamp`` gives a link ack its message id.
    """

    name: str
    monitor: NetworkMonitor

    @property
    def sim(self) -> Engine: ...

    def stamp(self, message: Message) -> None: ...

    def _transmit(self, src: NodeId, dst: NodeId, message: Message,
                  payload: "Frame", retransmit: bool = False) -> None: ...

    def _ordered_arrival(self, dst: NodeId,
                         stamped: StampedMessage) -> None: ...

    def _delivery_failed(self, frame: "Frame", attempts: int) -> None: ...


class ReliableLink:
    """Selective-repeat sliding-window transport with adaptive RTO.

    Mechanics per ``(src, dst)`` channel (full walkthrough in
    ``docs/TRANSPORT.md``):

    * **Batching** — messages sent within one simulation tick coalesce
      into frames of up to ``max_batch`` messages (one fault-plan draw,
      one ack per frame); the flush runs at the same simulated time.
    * **Sliding window** — at most ``window`` frames in flight; the
      rest queue and drain as acks free slots (:class:`SendWindow`).
    * **Acks** — the receiver acks every data-frame arrival (duplicates
      included: the previous ack may itself be lost) with its complete
      cumulative + selective state (:class:`AckRanges`); one surviving
      ack therefore repairs any number of lost predecessors.
    * **Adaptive RTO** — per-channel :class:`RtoEstimator` fed only by
      never-retransmitted frames (Karn's rule), doubled on timeout,
      reset by the next clean sample; armed timers get deterministic
      jitter from the link's seeded stream and respect the
      :class:`RetryPolicy` clamp.
    * **Fast retransmit** — a frame skipped by :data:`DUPACK_THRESHOLD`
      later acks is retransmitted without waiting for its timer.
    * **Abandonment** — after ``max_retries`` retransmissions the frame
      is dropped and a :class:`DeliveryFailure` is surfaced *per
      message*; the window advances past it and the receiver retires
      the gap via the piggybacked window base.
    """

    def __init__(self, net: LinkPort, policy: RetryPolicy,
                 rng: random.Random, window: int = 32,
                 max_batch: int = 8) -> None:
        if window < 1:
            raise ConfigError(f"send window {window!r} must be >= 1")
        if max_batch < 1:
            raise ConfigError(f"frame batch limit {max_batch!r} must be >= 1")
        self.net = net
        self.policy = policy
        self.rng = rng
        self.window = window
        self.max_batch = max_batch
        self.retransmissions = 0
        self.acks_sent = 0
        self.duplicates_suppressed = 0
        self.aborted = 0
        self.frames_sent = 0
        self.batched_frames = 0  # frames carrying more than one message
        self.fast_retransmissions = 0
        self._windows: Dict[Channel, SendWindow] = {}
        self._rtos: Dict[Channel, RtoEstimator] = {}
        self._recv: Dict[Channel, AckRanges] = {}
        self._tick: Dict[Channel, List[StampedMessage]] = {}
        # Link-ack accounting children per ack channel: what the
        # monitor's on_send / on_deliver would look up again on every ack.
        self._obs_ack_sent: Dict[Channel, Tuple[Counter, ...]] = {}
        self._obs_ack_received: Dict[Channel, Tuple[Counter, ...]] = {}
        # Per-instance counters are the deterministic primary source for
        # experiment reports; the hub handles mirror them into the
        # observability exports.
        hub = net.monitor.hub
        events = hub.counter(
            "rdp_reliable_link_events_total",
            "Reliable wired-link transport events, by type",
            labels=("event",))
        self._obs_retx = events.labels("retransmission")
        self._obs_acks = events.labels("ack_sent")
        self._obs_dups = events.labels("duplicate_suppressed")
        self._obs_aborts = events.labels("aborted")
        hub.gauge(
            "rdp_reliable_link_pending_frames",
            "Unacknowledged reliable-link frames awaiting ack or retry"
        ).set_function(lambda: float(self.pending_count()))
        self._obs_window = hub.gauge(
            "rdp_transport_window_occupancy",
            "In-flight selective-repeat frames, summed over channels")
        self._obs_window.set_function(
            lambda: float(sum(len(w.inflight)
                              for w in self._windows.values())))
        self._obs_rto = hub.histogram(
            "rdp_transport_rto_seconds",
            "Armed retransmission timeouts (jittered, clamped)",
            buckets=LATENCY_BUCKETS)
        retx_by_cause = hub.counter(
            "rdp_transport_retransmissions_total",
            "Selective-repeat retransmissions by trigger",
            labels=("cause",))
        self._obs_retx_timeout = retx_by_cause.labels("timeout")
        self._obs_retx_fast = retx_by_cause.labels("fast_retransmit")

    # -- per-channel state -------------------------------------------------

    def _window(self, channel: Channel) -> SendWindow:
        window = self._windows.get(channel)
        if window is None:
            window = self._windows[channel] = SendWindow(self.window)
        return window

    def _rto(self, channel: Channel) -> RtoEstimator:
        est = self._rtos.get(channel)
        if est is None:
            est = self._rtos[channel] = RtoEstimator(
                initial=self.policy.timeout,
                min_rto=self.policy.min_timeout,
                max_rto=self.policy.max_timeout,
                backoff=self.policy.backoff)
        return est

    # -- sender side -------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, stamped: StampedMessage) -> None:
        """Queue a stamped message; same-tick sends to the same
        destination coalesce into shared frames at the tick flush."""
        channel = (src, dst)
        buffered = self._tick.get(channel)
        if buffered is None:
            self._tick[channel] = [stamped]
            self.net.sim.schedule(0.0, self._flush, channel,
                                  label="wired:txflush")
        else:
            buffered.append(stamped)

    def _flush(self, channel: Channel) -> None:
        """Pack one tick's buffered messages into frames and pump."""
        buffered = self._tick.pop(channel, None)
        if buffered is None:
            return  # aborted while the flush event was in flight
        window = self._window(channel)
        src, dst = channel
        for i in range(0, len(buffered), self.max_batch):
            batch = tuple(buffered[i:i + self.max_batch])
            frame = window.allocate(src, dst, batch)
            if len(batch) > 1:
                self.batched_frames += 1
            window.queue.append(frame)
        self._pump(channel, window)

    def _pump(self, channel: Channel, window: SendWindow) -> None:
        """Transmit queued frames while the window has space."""
        while window.queue and len(window.inflight) < window.size:
            frame = window.queue.popleft()
            pending = _Pending(frame=frame, sent_at=self.net.sim.now)
            window.inflight[frame.seq] = pending
            frame.base = window.base
            self.frames_sent += 1
            self.net._transmit(frame.src, frame.dst, frame.message, frame)
            self._arm(channel, pending)
        if len(window.inflight) > window.max_occupancy:
            window.max_occupancy = len(window.inflight)

    def _arm(self, channel: Channel, pending: _Pending) -> None:
        rto = self.policy.jittered(self._rto(channel).rto, self.rng.random())
        self._obs_rto.observe(rto)
        pending.timer = self.net.sim.schedule(
            rto, self._expire, pending, label="wired:retx")

    def _expire(self, pending: _Pending) -> None:
        frame = pending.frame
        channel = (frame.src, frame.dst)
        window = self._windows.get(channel)
        if window is None or window.inflight.get(frame.seq) is not pending:
            return  # acked or aborted while the timer was in flight
        if pending.attempts > self.policy.max_retries:
            del window.inflight[frame.seq]
            self.net._delivery_failed(frame, pending.attempts)
            self._pump(channel, window)  # the slot is free again
            return
        self._rto(channel).on_timeout()  # Karn backoff
        self._retransmit(channel, window, pending)
        self._obs_retx_timeout.inc()

    def _retransmit(self, channel: Channel, window: SendWindow,
                    pending: _Pending) -> None:
        frame = pending.frame
        pending.attempts += 1
        pending.retransmitted = True
        pending.dupacks = 0
        pending.sent_at = self.net.sim.now
        if pending.timer is not None:
            pending.timer.cancel()
        self.retransmissions += 1
        self._obs_retx.inc()
        frame.base = window.base
        self.net._transmit(frame.src, frame.dst, frame.message, frame,
                           retransmit=True)
        self._arm(channel, pending)

    @staticmethod
    def _rtt_sample_ok(pending: _Pending) -> bool:
        """Karn's rule: a retransmitted frame's ack is ambiguous (it may
        answer any transmission), so it must never feed the estimator."""
        return not pending.retransmitted

    def _ack_one(self, window: SendWindow, seq: int) -> bool:
        pending = window.inflight.pop(seq, None)
        if pending is None:
            return False
        if pending.timer is not None:
            pending.timer.cancel()
        return True

    def _cumulative_advance(self, window: SendWindow, cum: int) -> None:
        """Retire every in-flight frame the cumulative ack covers."""
        if cum <= 0:
            return
        for seq in [s for s in window.inflight if s <= cum]:
            self._ack_one(window, seq)

    def _on_link_ack(self, ack: LinkAckMsg) -> None:
        assert ack.src is not None and ack.dst is not None
        handles = self._obs_ack_received.get((ack.src, ack.dst))
        if handles is None:  # monitor.on_deliver, resolved once
            handles = self._obs_ack_received[ack.src, ack.dst] = (
                self.net.monitor.deliver_handles(self.net.name, ack.kind,
                                                 ack.dst))
        handles[0].inc()
        handles[1].inc()
        # The acked channel runs data-sender -> data-receiver; the ack
        # travels the reverse direction, so swap its endpoints back.
        channel = (ack.dst, ack.src)
        window = self._windows.get(channel)
        if window is None:
            return
        # RTT sample from the frame that triggered this ack, if it is
        # still in flight and clean under Karn's rule.
        triggering = window.inflight.get(ack.seq)
        if triggering is not None and self._rtt_sample_ok(triggering):
            self._rto(channel).sample(self.net.sim.now - triggering.sent_at)
        self._cumulative_advance(window, ack.cum)
        for lo, hi in ack.sacks:
            for seq in [s for s in window.inflight if lo <= s <= hi]:
                self._ack_one(window, seq)
        self._count_dupacks(channel, window, ack)
        self._pump(channel, window)

    def _count_dupacks(self, channel: Channel, window: SendWindow,
                       ack: LinkAckMsg) -> None:
        """Fast retransmit: frames repeatedly skipped by higher acks are
        presumed lost before their timer fires."""
        highest = max((hi for _lo, hi in ack.sacks), default=ack.cum)
        if highest <= 0:
            return
        for seq in [s for s in window.inflight if s < highest]:
            pending = window.inflight[seq]
            pending.dupacks += 1
            if pending.dupacks >= DUPACK_THRESHOLD:
                if pending.attempts > self.policy.max_retries:
                    continue  # the armed timer will abandon it
                self.fast_retransmissions += 1
                self._retransmit(channel, window, pending)
                self._obs_retx_fast.inc()

    def abort_from(self, node: NodeId) -> int:
        """Cancel every unacked send *from* a crashed node (its volatile
        send state is gone; survivors' retransmissions toward it keep
        running and bridge the outage).  Sequence counters survive so a
        later re-attachment does not replay used numbers.  Returns the
        number of frames cancelled."""
        cancelled = 0
        for channel in [c for c in self._windows if c[0] == node]:
            window = self._windows[channel]
            for pending in window.inflight.values():
                if pending.timer is not None:
                    pending.timer.cancel()
            cancelled += len(window.inflight) + len(window.queue)
            window.inflight.clear()
            window.queue.clear()
        for channel in [c for c in self._tick if c[0] == node]:
            # The flush event finds no buffer and becomes a no-op.
            cancelled += len(self._tick.pop(channel))
        self.aborted += cancelled
        self._obs_aborts.inc(cancelled)
        return cancelled

    # -- receiver side -----------------------------------------------------

    def on_frame(self, frame: Frame) -> None:
        """A frame survived the wire: consume acks, ack + dedup data."""
        message = frame.message
        if isinstance(message, LinkAckMsg):
            self._on_link_ack(message)
            return
        channel = (frame.src, frame.dst)
        ranges = self._recv.get(channel)
        if ranges is None:
            ranges = self._recv[channel] = AckRanges()
        # The sender's window base retires dedup state: nothing below it
        # can ever be retransmitted, so the gap (an abandoned frame) is
        # closed and memory stays bounded by the window span.
        if frame.base > 0:
            ranges.advance_floor(frame.base - 1)
        fresh = ranges.add(frame.seq)
        # Ack every arrival, duplicates included: the previous ack may
        # itself have been lost and the sender is still retransmitting.
        self._emit_ack(frame, LinkAckMsg(
            seq=frame.seq, cum=ranges.cumulative, sacks=ranges.ranges()))
        if not fresh:
            self.duplicates_suppressed += 1
            self._obs_dups.inc()
            self.net.monitor.on_drop(self.net.name, message, "duplicate")
            return
        for stamped in frame.batch or ():
            self.net._ordered_arrival(frame.dst, stamped)

    def _emit_ack(self, frame: Frame, ack: LinkAckMsg) -> None:
        """Send *ack* back along the reverse channel of *frame*."""
        ack.src = frame.dst
        ack.dst = frame.src
        self.net.stamp(ack)
        self.acks_sent += 1
        self._obs_acks.inc()
        handles = self._obs_ack_sent.get((frame.dst, frame.src))
        if handles is None:
            handles = self._obs_ack_sent[frame.dst, frame.src] = (
                self.net.monitor.send_handles(self.net.name, ack.kind,
                                              frame.dst))
        sent, sent_bytes, node_sent = handles
        sent.inc()
        sent_bytes.inc(ack.size_bytes())
        node_sent.inc()
        self.net._transmit(
            frame.dst, frame.src, ack,
            Frame(src=frame.dst, dst=frame.src, seq=frame.seq, payload=ack))

    # -- reporting ---------------------------------------------------------

    def pending_count(self) -> int:
        """Messages/frames still in transport custody: in flight,
        window-queued, or awaiting the tick flush."""
        backlog = sum(w.backlog() for w in self._windows.values())
        return backlog + sum(len(b) for b in self._tick.values())

    def max_window_occupancy(self) -> int:
        return max((w.max_occupancy for w in self._windows.values()),
                   default=0)

    def describe(self) -> Dict[str, int]:
        """Transport counters for experiment reports (stable keys)."""
        return {
            "retransmissions": self.retransmissions,
            "acks_sent": self.acks_sent,
            "duplicates_suppressed": self.duplicates_suppressed,
            "aborted": self.aborted,
            "pending": self.pending_count(),
            "frames_sent": self.frames_sent,
            "batched_frames": self.batched_frames,
            "fast_retransmissions": self.fast_retransmissions,
            "max_window_occupancy": self.max_window_occupancy(),
        }


__all__ = [
    "AckRanges",
    "Channel",
    "DUPACK_THRESHOLD",
    "DeliveryFailure",
    "Frame",
    "LinkAckMsg",
    "LinkPort",
    "ReliableLink",
    "RetryPolicy",
    "RtoEstimator",
    "SendWindow",
]
