"""The wired (static) network.

Connects MSSs and application servers.  Per the paper's assumption 1 it
is reliable — no losses — and delivers messages in causal order by
default.  The ordering layer is pluggable (``causal`` / ``fifo`` /
``raw``) so the AN6 ablation can weaken the guarantee.

Assumption 1 itself is breakable: an optional :class:`FaultPlan`
injects seeded loss/duplication/reorder/partitions per frame, and an
optional reliable transport (built automatically whenever a fault plan
is present) repairs the damage *below* the ordering layer: the
selective-repeat sliding-window :class:`ReliableLink`.  With neither
configured the send path is the original lossless single hop.

Nodes attach with an object exposing ``node_id`` and
``on_wired_message(message)``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Protocol, Set, Union

from ..engine import Engine
from ..errors import UnknownNodeError
from ..sim import Simulator, TraceRecorder
from ..types import NodeId, is_mss
from .causal import OrderingLayer, StampedMessage, make_ordering
from .faults import FaultPlan
from .latency import ConstantLatency, LatencyModel
from .message import Message
from .monitor import Fabric, NetworkMonitor
from .reliable import (
    DeliveryFailure,
    Frame,
    ReliableLink,
    RetryPolicy,
)

# Optional per-pair propagation delay added on top of the sampled
# latency: (src, dst) -> seconds.  Lets a world model geography — e.g.
# Mobile IP's triangle routing paying for the distance to a far-away
# home agent.
PairwiseDelay = Callable[[NodeId, NodeId], float]


class WiredNode(Protocol):
    """Anything attachable to the wired network."""

    node_id: NodeId

    def on_wired_message(self, message: Message) -> None: ...


class WiredFabric(Fabric):
    """What a wired fabric keeps, whatever carries its frames: attached
    nodes, the crashed set, and the counters and trace rows of a send, a
    delivery, a drop and an abandoned frame.  :class:`WiredNetwork` and
    the UDP :class:`~repro.live.transport.LiveWiredTransport` add the
    wire — ``send``, and the ``_transmit``/``_ordered_arrival`` half of
    :class:`~repro.net.reliable.LinkPort` (this class is the other)."""

    name = "wired"

    def __init__(self, sim: Engine, recorder: Optional[TraceRecorder],
                 monitor: Optional[NetworkMonitor]) -> None:
        super().__init__(sim, recorder, monitor)
        self._nodes: Dict[NodeId, WiredNode] = {}
        self._down: Set[NodeId] = set()
        self.failures: List[DeliveryFailure] = []
        self.dup_injected = 0
        # Pre-bound observability handles (the TraceRecorder.wants()
        # contract for metrics: resolve once, bump unconditionally).
        fault_events = self.monitor.hub.counter(
            "rdp_wired_fault_events_total",
            "Fault-plan events materialized on the wired fabric, by type",
            labels=("event",))
        self._obs_dup_injected = fault_events.labels("duplicate_injected")
        self._obs_delivery_failed = fault_events.labels("delivery_failed")

    def attach(self, node: WiredNode) -> None:
        """Register a static node; replaces any previous registration."""
        self._nodes[node.node_id] = node

    # -- crash/recovery ---------------------------------------------------

    def set_down(self, node_id: NodeId) -> None:
        """Mark a node crashed: frames addressed to it are dropped at
        arrival (reason ``down``) without acknowledgement, so surviving
        senders keep retransmitting across the outage.

        The node's own unacked sends are deliberately NOT aborted: the
        transport models fabric custody (a frame accepted for delivery
        belongs to the network, not the station's RAM), and the SES
        ordering layer above cannot tolerate send-side loss — a gapped
        sequence would park every later message from this node forever.
        :meth:`ReliableLink.abort_from` exists for permanent
        decommissioning, where no later traffic will follow.
        """
        self._down.add(node_id)

    def set_up(self, node_id: NodeId) -> None:
        """Bring a crashed node back; delivery resumes on next arrival."""
        self._down.discard(node_id)

    # -- counters and trace rows ------------------------------------------

    def _note_send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        self.stamp(message)
        self.monitor.on_send(self.name, message)
        self._row("send", src, message, detail=True, dst=dst)

    def _note_duplicate(self, src: NodeId, dst: NodeId,
                        message: Message) -> None:
        self.dup_injected += 1
        self._obs_dup_injected.inc()
        self._row("wired_dup", src, message, dst=dst)

    def _fault_drop(self, src: NodeId, dst: NodeId, message: Message,
                    reason: str) -> None:
        self.monitor.on_drop(self.name, message, reason)
        self._row("wired_drop", dst, message, src=src, reason=reason)

    def _delivery_failed(self, frame: Frame, attempts: int) -> None:
        """The reliable link gave up on a frame: count, trace and record
        the failure *per carried message* (a selective-repeat frame may
        batch several), then offer the source node a redelivery hook.

        A node exposing ``on_delivery_failure(message)`` (the proxy
        redelivery path via the hosting MSS) is told about each
        abandoned message so application-level recovery — re-forwarding
        a result along a fresh route — can take over where transport
        persistence gave up."""
        node = self._nodes.get(frame.src)
        notify = getattr(node, "on_delivery_failure", None)
        for message in frame.protocol_messages():
            self._obs_delivery_failed.inc()
            self.monitor.on_drop(self.name, message, "delivery_failed")
            self._row("delivery_failed", frame.src, message,
                      dst=frame.dst, attempts=attempts)
            self.failures.append(DeliveryFailure(
                time=self.sim.now, src=frame.src, dst=frame.dst,
                message=message, attempts=attempts))
            if notify is not None:
                notify(message)

    def _deliver(self, dst: NodeId, message: Message) -> None:
        node = self._nodes.get(dst)
        if node is None:
            raise UnknownNodeError(f"wired destination {dst!r} detached mid-flight")
        self.monitor.on_deliver(self.name, message)
        self._row("recv", dst, message, src=message.src, detail=True)
        node.on_wired_message(message)


class WiredNetwork(WiredFabric):
    """Static network with configurable ordering, latency and faults."""

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
        ordering: str = "causal",
        pairwise_delay: Optional[PairwiseDelay] = None,
        faults: Optional[FaultPlan] = None,
        reliable: Optional[bool] = None,
        retry: Optional[RetryPolicy] = None,
        retry_rng: Optional[random.Random] = None,
        window: int = 32,
        max_batch: int = 8,
    ) -> None:
        super().__init__(sim, recorder, monitor)
        self.latency = latency or ConstantLatency(0.010)
        self.pairwise_delay = pairwise_delay
        self.rng = rng if rng is not None else random.Random(0)
        self.ordering: OrderingLayer = make_ordering(ordering)
        self._deliver_cbs: Dict[NodeId, Callable[[Message], None]] = {}
        self.faults = faults
        # The reliable transport defaults to "on iff faults are on"; an
        # explicit reliable=False keeps the raw faulty fabric (the AN14
        # ablation that demonstrates what the transport buys).
        self.transport: Optional[ReliableLink] = None
        if reliable if reliable is not None else faults is not None:
            self.transport = ReliableLink(
                self, policy=retry if retry is not None else RetryPolicy(),
                rng=retry_rng if retry_rng is not None else random.Random(1),
                window=window, max_batch=max_batch)

    def station_ids(self) -> List[NodeId]:
        """All attached Mobile Support Stations, sorted (page broadcasts)."""
        return sorted(n for n in self._nodes if is_mss(n))

    # -- send path --------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        """Send *message* from *src* to *dst*.

        Delivery is guaranteed on the default lossless fabric and on a
        faulty fabric with the reliable transport (up to the retry
        budget); with faults and ``reliable=False`` it is best-effort.
        """
        if dst not in self._nodes:
            raise UnknownNodeError(f"wired destination {dst!r} not attached")
        if src not in self._nodes:
            raise UnknownNodeError(f"wired source {src!r} not attached")
        message.src = src
        message.dst = dst
        stamped = self.ordering.on_send(src, dst, message)
        self._note_send(src, dst, message)
        transport = self.transport
        if transport is None and self.faults is None:
            # Lossless fast path: statement-for-statement the original
            # single-hop fabric (the zero-overhead pass-through the
            # bench determinism gate pins down).
            delay = self.latency.sample(self.rng)
            if self.pairwise_delay is not None:
                delay += self.pairwise_delay(src, dst)
            self.sim.schedule(delay, self._arrive, dst, stamped,
                              label=f"wired:{message.kind}")
            return
        if transport is not None:
            transport.send(src, dst, stamped)
        else:
            self._transmit(src, dst, message, stamped)

    def _transmit(self, src: NodeId, dst: NodeId, message: Message,
                  payload: Union[StampedMessage, Frame],
                  retransmit: bool = False) -> None:
        """Put one frame on the wire: consult the fault plan, then sample
        latency and schedule arrival.  *payload* is what ``_arrive``
        receives — a bare stamped message on the transportless fabric, a
        :class:`Frame` under the reliable link."""
        if retransmit:
            self._row("wired_retx", src, message, dst=dst)
        extra = 0.0
        if self.faults is not None:
            reason, duplicate, extra = self.faults.verdict(
                src, dst, self.sim.now)
            if reason is not None:
                self._fault_drop(src, dst, message, reason)
                return
            if duplicate is not None:
                self._note_duplicate(src, dst, message)
                self._schedule_arrival(src, dst, message, payload, duplicate)
        self._schedule_arrival(src, dst, message, payload, extra)

    def _schedule_arrival(self, src: NodeId, dst: NodeId, message: Message,
                          payload: Union[StampedMessage, Frame],
                          extra: float) -> None:
        delay = self.latency.sample(self.rng) + extra
        if self.pairwise_delay is not None:
            delay += self.pairwise_delay(src, dst)
        self.sim.schedule(delay, self._arrive, dst, payload,
                          label=f"wired:{message.kind}")

    # -- arrival path -----------------------------------------------------

    def _arrive(self, dst: NodeId,
                payload: Union[StampedMessage, Frame]) -> None:
        if self._down and dst in self._down:
            message = payload.message
            self._fault_drop(message.src or "?", dst, message, "down")
            return
        transport = self.transport
        if transport is not None:
            assert isinstance(payload, Frame)
            transport.on_frame(payload)
            return
        assert isinstance(payload, StampedMessage)
        self._ordered_arrival(dst, payload)

    def _ordered_arrival(self, dst: NodeId, stamped: StampedMessage) -> None:
        """Hand one deduplicated arrival to the ordering layer."""
        deliver = self._deliver_cbs.get(dst)
        if deliver is None:
            def deliver(m: Message, _dst: NodeId = dst) -> None:
                self._deliver(_dst, m)
            self._deliver_cbs[dst] = deliver
        self.ordering.on_arrival(dst, stamped, deliver)
