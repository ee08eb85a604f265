"""The wireless (cell) channel.

Each Mobile Support Station serves one cell.  The channel delivers

* **downlink** messages (MSS -> MH): delivered only when, at arrival time,
  the MH is still in the station's cell and is active — messages sent to a
  host that migrated or turned itself off are silently lost, exactly the
  situation RDP's proxy-side retransmission must cover;
* **uplink** messages (MH -> the MSS of its current cell at send time).

Both directions can additionally drop messages with a configurable loss
probability to model radio errors.

:class:`WirelessFabric` is that channel without a carrier: who is
registered, who may transmit, what a frame meets when it arrives, and
the counters and trace rows of each outcome.  The simulated
:class:`WirelessChannel` adds latency, airtime and the event queue; the
UDP radio in :mod:`repro.live.transport` adds a codec and a socket.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Protocol, Union

from ..engine import Engine
from ..errors import NetworkError, UnknownNodeError
from ..sim import TraceRecorder
from ..types import CellId, MhState, NodeId
from .faults import WirelessFaultPlan
from .latency import ConstantLatency, LatencyModel
from .message import Message
from .monitor import Fabric, NetworkMonitor


class WirelessStation(Protocol):
    """A base station: owns one cell, receives uplink messages."""

    node_id: NodeId
    cell_id: CellId

    def on_wireless_message(self, message: Message) -> None: ...


class WirelessHost(Protocol):
    """A mobile host: has a current cell and an activity state."""

    node_id: NodeId
    current_cell: Optional[CellId]
    state: MhState

    def on_wireless_message(self, message: Message) -> None: ...


class WirelessFabric(Fabric):
    """The radio last mile, whatever carries its frames.

    Registries of stations (by cell) and hosts, the uplink admission
    check, the checks a downlink frame meets at delivery time, the loss
    verdict — fault plan first, then the flat ``loss_probability`` draw
    from the channel's own ``rng`` — and the counters and trace rows of
    a send, a delivery, a drop and a congestion delay.  A subclass moves
    a frame from :meth:`downlink`/:meth:`uplink` to
    :meth:`_deliver_downlink`/:meth:`_deliver_uplink`.
    """

    name = "wireless"

    def __init__(
        self,
        sim: Engine,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
        faults: Optional[WirelessFaultPlan] = None,
    ) -> None:
        # 1.0 is legal: a total blackout (every transmission lost).
        if not 0.0 <= loss_probability <= 1.0:
            raise NetworkError(f"loss probability {loss_probability!r} out of range")
        super().__init__(sim, recorder, monitor)
        self.loss_probability = loss_probability
        self.rng = rng if rng is not None else random.Random(0)
        # Seeded radio-fault schedule; None (the default) keeps the
        # channel on its historical draw sequence, byte for byte.
        self.faults = faults
        self._stations: Dict[CellId, WirelessStation] = {}
        self._hosts: Dict[NodeId, WirelessHost] = {}

    def register_station(self, station: WirelessStation) -> None:
        self._stations[station.cell_id] = station

    def register_host(self, host: WirelessHost) -> None:
        self._hosts[host.node_id] = host

    def station_of(self, cell: CellId) -> WirelessStation:
        try:
            return self._stations[cell]
        except KeyError:
            raise UnknownNodeError(f"no station registered for cell {cell!r}") from None

    def host(self, host_id: NodeId) -> WirelessHost:
        try:
            return self._hosts[host_id]
        except KeyError:
            raise UnknownNodeError(f"unknown mobile host {host_id!r}") from None

    def note_handoff(self, host_id: NodeId) -> None:
        """An MH just switched cells; opens its fault-plan blackout window."""
        if self.faults is not None:
            self.faults.note_handoff(host_id, self.sim.now)

    # -- send side --------------------------------------------------------

    def _note_send(self, src: NodeId, dst: NodeId, message: Message) -> None:
        message.src = src
        message.dst = dst
        self.monitor.on_send(self.name, message)
        self._row("send", src, message, detail=True, dst=dst)

    def _admit_uplink(self, host: WirelessHost,
                      message: Message) -> WirelessStation:
        """Check *host* may transmit, count the send, and return the
        station of its current cell."""
        if host.state is not MhState.ACTIVE and host.state is not MhState.MIGRATING:
            raise NetworkError(f"{host.node_id} cannot transmit while {host.state}")
        if host.current_cell is None:
            raise NetworkError(f"{host.node_id} is not in any cell")
        station = self.station_of(host.current_cell)
        self._note_send(host.node_id, station.node_id, message)
        return station

    def _congestion(self, message: Message, sender: NodeId) -> float:
        """Congestion spike from the fault plan, traced as ``wireless_delay``."""
        if self.faults is None:
            return 0.0
        extra = self.faults.extra_delay()
        if extra > 0.0:
            self._row("wireless_delay", sender, message, extra=extra)
        return extra

    def _receivable(self, cell: CellId, host_id: NodeId) -> bool:
        """Could *host_id* receive a frame from *cell* right now?"""
        host = self._hosts.get(host_id)
        return (host is not None and host.state is MhState.ACTIVE
                and host.current_cell == cell)

    # -- delivery side ----------------------------------------------------

    def _deliver_downlink(self, cell: CellId, host_id: NodeId,
                          message: Message, was_receivable: bool = False) -> None:
        """A downlink frame reaches the air of *cell*.

        *was_receivable* is :meth:`_receivable` as of when the frame
        left: a host that went inactive while it was in flight is a
        distinct fault (``host_inactive``) rather than the ordinary
        send-to-sleeping case the proxy already expects.
        """
        host = self._hosts.get(host_id)
        if host is None:
            self._drop(message, "unknown_host")
        elif host.state is not MhState.ACTIVE:
            if was_receivable:
                self._drop(message, "host_inactive", kind="wireless_drop")
            else:
                self._drop(message, "inactive")
        elif host.current_cell != cell:
            self._drop(message, "not_in_cell")
        elif not self._lost(cell, host_id, message):
            self._receive(host, message)

    def _deliver_uplink(self, cell: CellId, host_id: NodeId,
                        message: Message) -> None:
        station = self.station_of(cell)
        if not self._lost(cell, host_id, message):
            self._receive(station, message)

    def _lost(self, cell: CellId, host_id: NodeId, message: Message) -> bool:
        """Drop *message* if the fault plan or the flat loss says so."""
        if self.faults is not None:
            verdict = self.faults.verdict(cell, host_id, self.sim.now)
            if verdict is not None:
                self._drop(message, verdict, kind="wireless_drop")
                return True
        if self.loss_probability > 0 and self.rng.random() < self.loss_probability:
            self._drop(message, "loss")
            return True
        return False

    def _receive(self, node: Union[WirelessStation, WirelessHost],
                 message: Message) -> None:
        self.monitor.on_deliver(self.name, message)
        self._row("recv", node.node_id, message, src=message.src, detail=True)
        node.on_wireless_message(message)

    def _drop(self, message: Message, reason: str, kind: str = "drop") -> None:
        self.monitor.on_drop(self.name, message, reason)
        self._row(kind, message.dst or NodeId("?"), message, reason=reason)


class WirelessChannel(WirelessFabric):
    """Cell-based radio channel with latency, loss and optional bandwidth.

    When ``bandwidth_bps`` is set, each cell is a shared medium: messages
    serialize one at a time per cell at ``size_bytes * 8 / bandwidth``
    seconds each (uplink and downlink share the medium), modelling the
    "communication bandwidth of wireless media" the indirect model lets
    higher layers adapt to (paper, Section 4).  ``None`` keeps the
    classic infinite-capacity behaviour.
    """

    def __init__(
        self,
        sim: Engine,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
        rng: Optional[random.Random] = None,
        recorder: Optional[TraceRecorder] = None,
        monitor: Optional[NetworkMonitor] = None,
        bandwidth_bps: Optional[float] = None,
        faults: Optional[WirelessFaultPlan] = None,
    ) -> None:
        super().__init__(sim, loss_probability, rng, recorder, monitor, faults)
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise NetworkError(f"bandwidth {bandwidth_bps!r} must be positive")
        self.latency = latency or ConstantLatency(0.005)
        self.bandwidth_bps = bandwidth_bps
        # Per-cell medium: the time until which the cell is transmitting.
        self._medium_busy_until: Dict[CellId, float] = {}
        # Pre-bound observability handle: airtime (queueing +
        # serialization) per transmission on a bandwidth-limited medium.
        self._obs_airtime = self.monitor.hub.histogram(
            "rdp_wireless_airtime_seconds",
            "Shared-medium queueing plus serialization delay per "
            "transmission (bandwidth-limited channels only)",
            buckets=(0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0))

    def _airtime(self, cell: CellId, message: Message) -> float:
        """Queueing + serialization delay on the cell's shared medium."""
        if self.bandwidth_bps is None:
            return 0.0
        serialization = message.size_bytes() * 8.0 / self.bandwidth_bps
        start = max(self.sim.now, self._medium_busy_until.get(cell, 0.0))
        finish = start + serialization
        self._medium_busy_until[cell] = finish
        airtime = finish - self.sim.now
        self._obs_airtime.observe(airtime)
        return airtime

    def downlink(self, station: WirelessStation, host_id: NodeId, message: Message) -> None:
        """One transmission attempt from *station* to *host_id*.

        The station fires and forgets; the paper's respMss never retries —
        recovery is the proxy's job (Section 3.1).
        """
        self.host(host_id)  # an unknown host raises before anything is counted
        self._note_send(station.node_id, host_id, message)
        delay = (self.latency.sample(self.rng)
                 + self._airtime(station.cell_id, message)
                 + self._congestion(message, station.node_id))
        # Events carry ids, never live endpoints: the host is re-resolved
        # at delivery time so a scheduled frame holds no alias that could
        # dangle across a shard boundary (SHD006).
        self.sim.schedule(delay, self._deliver_downlink, station.cell_id,
                          host_id, message,
                          self._receivable(station.cell_id, host_id),
                          label=f"wl-down:{message.kind}")

    def uplink(self, host: WirelessHost, message: Message) -> None:
        """Transmit from *host* to the station of its current cell."""
        station = self._admit_uplink(host, message)
        delay = (self.latency.sample(self.rng)
                 + self._airtime(station.cell_id, message)
                 + self._congestion(message, host.node_id))
        self.sim.schedule(delay, self._deliver_uplink, station.cell_id,
                          host.node_id, message, label=f"wl-up:{message.kind}")
