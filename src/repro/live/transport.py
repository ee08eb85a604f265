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
  state lives here.  Inbound data frames pass through an
  :class:`~repro.live.channel.InboundShaper` first: a shaped drop never
  reaches the link, so it is never acknowledged, and what the trace
  records as ``wired_retx`` is a real datagram hitting the wire again.

* :class:`LiveWirelessStationSide` — what an MSS process sees of the
  radio.  Downlink is fire-and-forget (one datagram to the driver,
  faithful to the paper's single-attempt respMss); ``host()`` raises
  :class:`~repro.errors.UnknownNodeError` because radio-level host state
  lives in the driver process — the MSS call sites already treat that
  surface as optional knowledge (``_host_in_cell`` et al. catch and
  degrade).

* :class:`LiveWirelessHostSide` — what the driver process (hosting the
  MHs) sees of the radio.  Uplink state checks, cell resolution, and
  the delivery-time checks of the sim channel (inactive host, wrong
  cell, fault verdicts) are mirrored here, where the host objects live.

All three record the same trace kinds with the same fields as their sim
counterparts (the wired one through the same
:class:`~repro.net.wired.WiredFabric` methods), which is what lets
``obs/spans.py`` and the invariant oracle consume a merged live trace
unmodified.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from ..errors import NetworkError, UnknownNodeError
from ..net.causal import StampedMessage
from ..net.message import Message
from ..net.monitor import NetworkMonitor
from ..net.reliable import Frame, ReliableLink, RetryPolicy
from ..net.wired import WiredFabric
from ..net.wireless import WirelessHost, WirelessStation
from ..sim.tracing import TraceRecorder
from ..types import CellId, MhState, NodeId
from .channel import InboundShaper, WirelessShaper
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
        shaper: Optional[InboundShaper] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        super().__init__(engine, recorder, monitor)
        self.sock = sock
        self.addresses = dict(addresses)
        self.rng = rng if rng is not None else random.Random(0)
        self.shaper = shaper if shaper is not None else InboundShaper(None)
        self.transport = ReliableLink(
            self, policy if policy is not None else RetryPolicy(), self.rng)
        self.send_errors = 0

    def station_ids(self) -> List[NodeId]:
        """Every station in the cluster, from the address map (sorted)."""
        return [node for node in sorted(self.addresses)
                if str(node).startswith("mss:")]

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
        sender, the addressee is up, and the shaper lets it through.
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
        verdict = self.shaper.verdict(src, dst, self.sim.now)
        if not verdict.deliver:
            self._fault_drop(src, dst, message, verdict.reason)
            return  # unacked: the sender's timer produces the real retry
        if verdict.duplicate:
            self._note_duplicate(src, dst, message)
            self.transport.on_frame(frame)
        if verdict.extra_delay > 0:
            self.sim.schedule(verdict.extra_delay, self.transport.on_frame,
                              frame, label="live:wired-delay")
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


class LiveWirelessStationSide:
    """The radio as seen from an MSS process: downlink out, uplink in."""

    name = "wireless"

    def __init__(
        self,
        engine: AsyncioEngine,
        sock: Any,
        driver_addr: Address,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
    ) -> None:
        self.engine = engine
        self.sock = sock
        self.driver_addr = driver_addr
        self.recorder = (recorder if recorder is not None
                         else TraceRecorder(enabled=False))
        self.monitor = monitor if monitor is not None else NetworkMonitor()
        self._stations: Dict[CellId, WirelessStation] = {}
        self.send_errors = 0

    def register_station(self, station: WirelessStation) -> None:
        self._stations[station.cell_id] = station

    def host(self, host_id: NodeId) -> WirelessHost:
        """Radio-level host state lives in the driver process.

        The MSS call sites (``_host_in_cell``/``_host_unreachable``)
        treat this surface as best-effort knowledge and degrade when it
        raises, so the live station simply has none.
        """
        raise UnknownNodeError(
            f"live station has no radio-level view of {host_id!r}")

    def downlink(self, station: WirelessStation, host_id: NodeId,
                 message: Message) -> None:
        """One fire-and-forget transmission attempt toward the driver."""
        message.src = station.node_id
        message.dst = host_id
        self.monitor.on_send(self.name, message)
        if self.recorder.wants("send"):
            self.recorder.record(
                self.engine.now, "send", station.node_id,
                net=self.name, msg=message.kind, msg_id=message.msg_id,
                dst=host_id, detail=message.describe())
        data = encode_envelope({"t": "wmsg", "dir": "down",
                                "cell": station.cell_id,
                                "m": message_to_obj(message)})
        try:
            self.sock.sendto(data, self.driver_addr)
        except OSError:
            self.send_errors += 1

    def on_datagram(self, obj: Dict[str, Any]) -> None:
        """One uplink frame arriving from the driver."""
        try:
            message = message_from_obj(obj["m"])
            cell = CellId(obj["cell"])
        except (KeyError, TypeError, CodecError):
            return
        station = self._stations.get(cell)
        if station is None:
            return
        self.monitor.on_deliver(self.name, message)
        if self.recorder.wants("recv"):
            self.recorder.record(
                self.engine.now, "recv", station.node_id,
                net=self.name, msg=message.kind, msg_id=message.msg_id,
                src=message.src, detail=message.describe())
        station.on_wireless_message(message)


class LiveWirelessHostSide:
    """The radio as seen from the driver process hosting the MHs."""

    name = "wireless"

    def __init__(
        self,
        engine: AsyncioEngine,
        sock: Any,
        stations: Dict[CellId, Tuple[NodeId, Address]],
        shaper: Optional[WirelessShaper] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
    ) -> None:
        self.engine = engine
        self.sock = sock
        self.shaper = shaper if shaper is not None else WirelessShaper(None)
        self.recorder = (recorder if recorder is not None
                         else TraceRecorder(enabled=False))
        self.monitor = monitor if monitor is not None else NetworkMonitor()
        self._stations: Dict[CellId, _StationStub] = {}
        self._station_addrs: Dict[CellId, Address] = {}
        for cell, (node_id, addr) in stations.items():
            self._stations[cell] = _StationStub(node_id, cell)
            self._station_addrs[cell] = addr
        self._hosts: Dict[NodeId, WirelessHost] = {}
        self.send_errors = 0

    def register_host(self, host: WirelessHost) -> None:
        self._hosts[host.node_id] = host

    def host(self, host_id: NodeId) -> WirelessHost:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise UnknownNodeError(
                f"unknown mobile host {host_id!r}") from None

    def station_of(self, cell: CellId) -> _StationStub:
        try:
            return self._stations[cell]
        except KeyError:
            raise UnknownNodeError(
                f"no station registered for cell {cell!r}") from None

    def note_handoff(self, host_id: NodeId) -> None:
        self.shaper.note_handoff(host_id, self.engine.now)

    def uplink(self, host: WirelessHost, message: Message) -> None:
        if host.state is not MhState.ACTIVE \
                and host.state is not MhState.MIGRATING:
            raise NetworkError(
                f"{host.node_id} cannot transmit while {host.state}")
        if host.current_cell is None:
            raise NetworkError(f"{host.node_id} is not in any cell")
        cell = host.current_cell
        station = self.station_of(cell)
        message.src = host.node_id
        message.dst = station.node_id
        self.monitor.on_send(self.name, message)
        if self.recorder.wants("send"):
            self.recorder.record(
                self.engine.now, "send", host.node_id,
                net=self.name, msg=message.kind, msg_id=message.msg_id,
                dst=station.node_id, detail=message.describe())
        verdict = self.shaper.verdict(cell, host.node_id, self.engine.now)
        if verdict is not None:
            self._drop(message, verdict,
                       kind="drop" if verdict == "loss" else "wireless_drop")
            return
        data = encode_envelope({"t": "wmsg", "dir": "up", "cell": cell,
                                "m": message_to_obj(message)})
        delay = self.shaper.extra_delay()
        if delay > 0:
            self.engine.schedule(delay, self._sendto, data, cell,
                                 label="live:wl-congestion")
        else:
            self._sendto(data, cell)

    def _sendto(self, data: bytes, cell: CellId) -> None:
        try:
            self.sock.sendto(data, self._station_addrs[cell])
        except OSError:
            self.send_errors += 1

    def on_datagram(self, obj: Dict[str, Any]) -> None:
        """One downlink frame arriving from a station process.

        The delivery-time checks mirror the sim channel's
        ``_deliver_downlink``: the frame dies unless the target host is
        still active and still in the sending station's cell, then the
        fault verdicts get their say.
        """
        try:
            message = message_from_obj(obj["m"])
            cell = CellId(obj["cell"])
        except (KeyError, TypeError, CodecError):
            return
        host = self._hosts.get(message.dst)
        if host is None:
            self._drop(message, "unknown_host")
            return
        if host.state is not MhState.ACTIVE:
            self._drop(message, "inactive")
            return
        if host.current_cell != cell:
            self._drop(message, "not_in_cell")
            return
        verdict = self.shaper.verdict(cell, host.node_id, self.engine.now)
        if verdict is not None:
            self._drop(message, verdict,
                       kind="drop" if verdict == "loss" else "wireless_drop")
            return
        delay = self.shaper.extra_delay()
        if delay > 0:
            self.engine.schedule(delay, self._deliver_downlink, host, message,
                                 label="live:wl-congestion")
        else:
            self._deliver_downlink(host, message)

    def _deliver_downlink(self, host: WirelessHost, message: Message) -> None:
        self.monitor.on_deliver(self.name, message)
        if self.recorder.wants("recv"):
            self.recorder.record(
                self.engine.now, "recv", host.node_id,
                net=self.name, msg=message.kind, msg_id=message.msg_id,
                src=message.src, detail=message.describe())
        host.on_wireless_message(message)

    def _drop(self, message: Message, reason: str,
              kind: str = "drop") -> None:
        self.monitor.on_drop(self.name, message, reason)
        if self.recorder.wants(kind):
            self.recorder.record(
                self.engine.now, kind, message.dst or "?",
                net=self.name, msg=message.kind, msg_id=message.msg_id,
                reason=reason)
