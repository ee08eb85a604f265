"""One live MSS process: station + co-hosted servers on a UDP socket.

The driver (:mod:`repro.live.cluster`) binds every socket **before**
forking, so datagrams sent to a child that has not finished starting up
simply queue in its kernel buffer — no startup race.  Each child then:

1. builds its private engine stack — fresh asyncio loop,
   :class:`~repro.live.clock.LiveClock` on the cluster epoch,
   :class:`~repro.live.engine.AsyncioEngine` drawing ids from its own
   range (``index * 10**9 + 1`` upward, so msg/proxy/delivery ids stay
   cluster-unique without coordination), a full
   :class:`~repro.sim.tracing.TraceRecorder`;
2. constructs the protocol entities exactly as the sim world would
   (same constructors, same config), wired through the live transports;
3. pumps datagrams from its socket into the transports until the driver
   sends a ``stop`` control frame, then dumps its trace rows as JSONL
   for the driver to merge.

Everything here runs *inside* the forked child; the only public entry
point is :func:`run_mss_process`.
"""

from __future__ import annotations

import asyncio
import json
import socket
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..config import WiredFaultSpec
from ..engine import Ids
from ..instruments import Instruments
from ..net.directory import DirectoryService
from ..net.faults import wired_plan
from ..servers.base import AppServer
from ..sim.rng import RngStreams
from ..sim.tracing import TraceRecorder
from ..stations.mss import MobileSupportStation, MssConfig
from ..types import CellId, NodeId
from .clock import LiveClock
from .codec import CodecError, decode_envelope
from .engine import AsyncioEngine
from .transport import LiveWiredTransport, LiveWirelessStationSide

Address = Tuple[str, int]

#: Width of each process's id namespace: process ``i`` draws ids from
#: ``i * 10**9 + 1`` upward.  A short-lived cluster gets nowhere near
#: exhausting a billion ids per process.
ID_NAMESPACE = 10 ** 9


@dataclass
class ChildConfig:
    """Everything a forked MSS process needs (must be picklable)."""

    index: int                      # 1-based; the driver is 0
    station: str                    # station name, e.g. "s0"
    cell: str                       # cell this station covers
    epoch: float                    # cluster-wide time.monotonic() origin
    seed: int                       # root seed (fault plans, jitter rng)
    addresses: Dict[str, Address]   # wired node id -> UDP address
    driver_addr: Address            # the driver's socket (radio + ctrl)
    servers: Tuple[Tuple[str, str], ...] = ()   # (name, service) here
    services: Tuple[Tuple[str, str], ...] = ()  # global service -> node id
    wired_faults: Optional[WiredFaultSpec] = None
    proxy_ack_timeout: Optional[float] = None
    wireless_ack_timeout: Optional[float] = None
    trace_path: str = ""            # where to dump this process's trace


def dump_trace(recorder: TraceRecorder, path: str) -> None:
    """Write trace rows as JSONL for the driver-side merge."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in recorder.records:
            fh.write(json.dumps(
                {"time": rec.time, "kind": rec.kind, "node": rec.node,
                 "fields": rec.fields},
                default=str) + "\n")


class _ChildRuntime:
    """The wiring of one MSS process (kept on an object for testing)."""

    def __init__(self, config: ChildConfig, sock: socket.socket,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.config = config
        self.sock = sock
        self.loop = loop
        self.clock = LiveClock(config.epoch)
        self.engine = AsyncioEngine(
            loop, self.clock, Ids(config.index * ID_NAMESPACE + 1))
        self.recorder = TraceRecorder()
        self.instruments = Instruments(recorder=self.recorder)
        self.directory = DirectoryService()
        for service, node in config.services:
            self.directory.register(service, NodeId(node))
        streams = RngStreams(config.seed)
        self.wired = LiveWiredTransport(
            self.engine, sock,
            {NodeId(node): addr for node, addr in config.addresses.items()},
            rng=streams.stream(f"live.wired.{config.station}"),
            recorder=self.recorder,
            monitor=self.instruments.monitor,
            faults=wired_plan(config.wired_faults, streams),
        )
        self.wireless = LiveWirelessStationSide(
            self.engine, sock, config.driver_addr,
            recorder=self.recorder,
            monitor=self.instruments.monitor,
        )
        self.mss = MobileSupportStation(
            self.engine, config.station, CellId(config.cell),
            self.wired, self.wireless, self.directory,
            instruments=self.instruments,
            config=MssConfig(
                proxy_ack_timeout=config.proxy_ack_timeout,
                wireless_ack_timeout=config.wireless_ack_timeout,
            ),
        )
        self.servers = [
            AppServer(self.engine, name, self.wired, self.directory,
                      service=service, instruments=self.instruments)
            for name, service in config.servers
        ]
        self.stopped = asyncio.Event()

    def on_readable(self) -> None:
        """Drain every datagram currently queued on the socket."""
        while True:
            try:
                data, _addr = self.sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            self.dispatch(data)

    def dispatch(self, data: bytes) -> None:
        try:
            obj = decode_envelope(data)
        except CodecError:
            return
        tag = obj.get("t")
        if tag in ("msg", "ack"):
            self.wired.on_datagram(obj)
        elif tag == "wmsg":
            self.wireless.on_datagram(obj)
        elif tag == "ctrl" and obj.get("op") == "stop":
            self.stopped.set()

    def announce_ready(self) -> None:
        from .codec import encode_envelope
        frame = encode_envelope({"t": "ctrl", "op": "ready",
                                 "src": self.config.station})
        try:
            self.sock.sendto(frame, self.config.driver_addr)
        except OSError:
            pass  # the pre-bound sockets make readiness best-effort anyway


def run_mss_process(config: ChildConfig, sock: socket.socket) -> None:
    """Child-process main: serve the station until told to stop."""
    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    sock.setblocking(False)
    runtime = _ChildRuntime(config, sock, loop)
    loop.add_reader(sock.fileno(), runtime.on_readable)
    runtime.announce_ready()
    try:
        loop.run_until_complete(runtime.stopped.wait())
    finally:
        loop.remove_reader(sock.fileno())
        if config.trace_path:
            dump_trace(runtime.recorder, config.trace_path)
        loop.close()
        sock.close()
