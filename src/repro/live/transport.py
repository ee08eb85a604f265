"""UDP transports behind the sim network interfaces.

Three adapters, each implementing exactly the structural surface the
protocol entities already program against:

* :class:`LiveWiredTransport` — the inter-station fabric.  Reliable
  delivery over lossy loopback UDP is the sim's own
  :class:`~repro.net.reliable.ReliableLink` — selective repeat, SACK,
  fast retransmit, adaptive RTO on wall-clock RTT samples, window-bounded
  dedup, ``delivery_failed`` → ``on_delivery_failure`` when the retry
  budget runs out — plugged into this class as its
  :class:`~repro.net.reliable.LinkPort`: a frame out is one datagram, a
  datagram in is one ``on_frame``.  No sequence number, timer or dedup
  state lives here.  An inbound data frame first meets the fault plan's
  :meth:`~repro.net.faults.FaultPlan.verdict`: a shaped drop never
  reaches the link, so it is never acknowledged, and what the trace
  records as ``wired_retx`` is a real datagram hitting the wire again.

* :class:`LiveWirelessStationSide` — what an MSS process sees of the
  radio.  Downlink is fire-and-forget (one datagram to the driver,
  faithful to the paper's single-attempt respMss); no host is ever
  registered here, so ``host()`` raises
  :class:`~repro.errors.UnknownNodeError` — the MSS call sites already
  treat that surface as optional knowledge (``_host_in_cell`` et al.
  catch and degrade).

* :class:`LiveWirelessHostSide` — what the driver process (hosting the
  MHs) sees of the radio: uplink out, downlink in.

Both radio halves are :class:`~repro.net.wireless.WirelessFabric` — the
admission and delivery-time checks, the loss verdict and every counter
and trace row are the sim channel's own code — and the wired one is
:class:`~repro.net.wired.WiredFabric`; what this module adds is the
codec and the socket.  That is what lets ``obs/spans.py`` and the
invariant oracle consume a merged live trace unmodified.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import UnknownNodeError
from ..net.causal import StampedMessage
from ..net.faults import FaultPlan, WirelessFaultPlan
from ..net.message import Message
from ..net.monitor import NetworkMonitor
from ..net.reliable import Frame, ReliableLink, RetryPolicy
from ..net.wired import WiredFabric
from ..net.wireless import WirelessFabric, WirelessHost, WirelessStation
from ..sim.tracing import TraceRecorder
from ..types import CellId, NodeId, is_mss
from .codec import (
    CodecError,
    encode_envelope,
    frame_from_envelope,
    frame_to_envelope,
    message_from_obj,
    message_to_obj,
    unstamped,
)
from .engine import AsyncioEngine

Address = Tuple[str, int]


class LiveWiredTransport(WiredFabric):
    """The wired fabric over one process's UDP socket: the port
    (:class:`~repro.net.reliable.LinkPort`) its reliable link sends
    datagrams through."""

    def __init__(
        self,
        engine: AsyncioEngine,
        sock: Any,
        addresses: Dict[NodeId, Address],
        rng: Optional[random.Random] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
        faults: Optional[FaultPlan] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(engine, recorder, monitor)
        self.sock = sock
        self.addresses = dict(addresses)
        self.rng = rng if rng is not None else random.Random(0)
        self.faults = faults
        self.transport = ReliableLink(
            self, policy if policy is not None else RetryPolicy(), self.rng)
        self.send_errors = 0

    def station_ids(self) -> List[NodeId]:
        """Every station in the cluster, from the address map (sorted)."""
        return sorted(node for node in self.addresses if is_mss(node))

    # -- send path ---------------------------------------------------------

    def send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        if dst not in self.addresses:
            raise UnknownNodeError(f"wired destination {dst!r} not in the "
                                   f"cluster address map")
        if src not in self._nodes:
            raise UnknownNodeError(f"wired source {src!r} not attached")
        message.src = src
        message.dst = dst
        self._note_send(src, dst, message)
        self.transport.send(src, dst, unstamped(message))

    def _transmit(self, src: NodeId, dst: NodeId, message: Message,
                  payload: Frame, retransmit: bool = False) -> None:
        """One frame, one datagram."""
        if retransmit:
            self._row("wired_retx", src, message, dst=dst)
        try:
            self.sock.sendto(encode_envelope(frame_to_envelope(payload)),
                             self.addresses[dst])
        except OSError:
            # A full socket buffer (or a frame too big for a datagram)
            # behaves like wire loss: the link's timer recovers it, or
            # gives up and reports delivery_failed.
            self.send_errors += 1

    # -- receive path ------------------------------------------------------

    def on_datagram(self, obj: Dict[str, Any]) -> None:
        """One parsed wired envelope (``msg`` or ``ack``).

        The link acknowledges every data frame it is shown, and an ack
        is a promise to deliver: a frame reaches it only if it is well
        formed, this process hosts the addressee and can answer the
        sender, the addressee is up, and the fault plan lets it through.
        """
        try:
            frame = frame_from_envelope(obj)
        except CodecError:
            return
        src, dst = frame.src, frame.dst
        if dst not in self._nodes or src not in self.addresses:
            return
        if frame.payload is not None:
            # Acks are not shaped: to the sender a lost ack and a lost
            # data frame look the same, and shaping one direction keeps
            # the drop count equal to the plan's loss draws.
            self.transport.on_frame(frame)
            return
        message = frame.message
        if dst in self._down:
            self._fault_drop(src, dst, message, "down")
            return  # unacked: the peer keeps retrying until we come up
        duplicate, extra = None, 0.0
        if self.faults is not None:
            reason, duplicate, extra = self.faults.verdict(
                src, dst, self.sim.now)
            if reason is not None:
                self._fault_drop(src, dst, message, reason)
                return  # unacked: the sender's timer produces the real retry
        if duplicate is not None:
            # Both copies of a shaped duplicate arrive now; only the
            # original pays the plan's extra delay.
            self._note_duplicate(src, dst, message)
            self.transport.on_frame(frame)
        if extra > 0:
            self.sim.schedule(extra, self.transport.on_frame, frame,
                              label="live:wired-delay")
        else:
            self.transport.on_frame(frame)

    def _ordered_arrival(self, dst: NodeId, stamped: StampedMessage) -> None:
        """No ordering layer on the live wire: deliver on arrival."""
        self._deliver(dst, stamped.message)


class _StationStub:
    """What the driver-side channel knows of a remote station."""

    __slots__ = ("node_id", "cell_id")

    def __init__(self, node_id: NodeId, cell_id: CellId) -> None:
        self.node_id = node_id
        self.cell_id = cell_id


class _LiveRadio(WirelessFabric):
    """The radio fabric over one process's UDP socket: a frame in the
    air is one ``wmsg`` datagram."""

    def __init__(self, engine: AsyncioEngine, sock: Any,
                 **fabric: Any) -> None:
        super().__init__(engine, **fabric)
        self.sock = sock
        self.send_errors = 0

    def _sendto(self, direction: str, cell: CellId, message: Message,
                addr: Address) -> None:
        data = encode_envelope({"t": "wmsg", "dir": direction, "cell": cell,
                                "m": message_to_obj(message)})
        try:
            self.sock.sendto(data, addr)
        except OSError:
            self.send_errors += 1

    @staticmethod
    def _parse(obj: Dict[str, Any]) -> Optional[Tuple[CellId, Message]]:
        """``(cell, message)`` of one ``wmsg`` envelope, None if malformed."""
        try:
            return CellId(obj["cell"]), message_from_obj(obj["m"])
        except (KeyError, TypeError, CodecError):
            return None

    def _after(self, delay: float, callback: Callable[..., None],
               *args: Any) -> None:
        """Run *callback* once a congestion *delay* has passed."""
        if delay > 0:
            self.sim.schedule(delay, callback, *args,
                              label="live:wl-congestion")
        else:
            callback(*args)


class LiveWirelessStationSide(_LiveRadio):
    """The radio as seen from an MSS process: downlink out, uplink in."""

    def __init__(
        self,
        engine: AsyncioEngine,
        sock: Any,
        driver_addr: Address,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
    ) -> None:
        super().__init__(engine, sock, recorder=recorder, monitor=monitor)
        self.driver_addr = driver_addr

    def downlink(self, station: WirelessStation, host_id: NodeId,
                 message: Message) -> None:
        """One fire-and-forget transmission attempt toward the driver,
        where the hosts — and so every delivery-time check — live."""
        self._note_send(station.node_id, host_id, message)
        self._sendto("down", station.cell_id, message, self.driver_addr)

    def on_datagram(self, obj: Dict[str, Any]) -> None:
        """One uplink frame arriving from the driver, which has already
        put it through the loss verdict."""
        parsed = self._parse(obj)
        if parsed is None:
            return
        cell, message = parsed
        if cell in self._stations:
            self._receive(self._stations[cell], message)


class LiveWirelessHostSide(_LiveRadio):
    """The radio as seen from the driver process hosting the MHs."""

    def __init__(
        self,
        engine: AsyncioEngine,
        sock: Any,
        stations: Dict[CellId, Tuple[NodeId, Address]],
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
        faults: Optional[WirelessFaultPlan] = None,
    ) -> None:
        super().__init__(engine, sock, loss_probability=loss_probability,
                         rng=rng, recorder=recorder, monitor=monitor,
                         faults=faults)
        self._station_addrs: Dict[CellId, Address] = {}
        for cell, (node_id, addr) in stations.items():
            self.register_station(_StationStub(node_id, cell))
            self._station_addrs[cell] = addr

    def uplink(self, host: WirelessHost, message: Message) -> None:
        station = self._admit_uplink(host, message)
        self._after(self._congestion(message, host.node_id),
                    self._transmit_uplink, station.cell_id, host.node_id,
                    message)

    def _transmit_uplink(self, cell: CellId, host_id: NodeId,
                         message: Message) -> None:
        """The hand-off blackout state lives with the hosts, so the
        uplink meets its loss verdict here, before the socket."""
        if not self._lost(cell, host_id, message):
            self._sendto("up", cell, message, self._station_addrs[cell])

    def on_datagram(self, obj: Dict[str, Any]) -> None:
        """One downlink frame arriving from a station process."""
        parsed = self._parse(obj)
        if parsed is None:
            return
        cell, message = parsed
        host_id = message.dst or NodeId("?")
        self._after(self._congestion(message, message.src or NodeId("?")),
                    self._deliver_downlink, cell, host_id, message,
                    self._receivable(cell, host_id))
