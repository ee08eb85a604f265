"""The live cluster driver: fork the stations, host the MHs, gate.

:func:`run_cluster` is the orchestration heart of the live backend:

1. **Bind first, fork second.**  The driver binds one loopback UDP
   socket per station plus its own *before* forking, and hands the bound
   socket objects across ``fork``.  Any datagram addressed to a process
   that has not finished starting simply waits in that socket's kernel
   buffer — there is no startup race to paper over with sleeps.
2. **One clock.**  ``LiveClock.start()`` samples the epoch pre-fork;
   every process rebases ``time.monotonic()`` against it, so the merged
   trace lives on a single time axis.
3. **Drive the workload.**  The driver process hosts the mobile hosts
   and their :class:`~repro.hosts.api.RdpClient`\\ s, issues the request
   schedule, performs the mid-run migration, and polls for quiescence.
4. **Merge and gate.**  After shutdown it streams a time merge of every
   process's trace rows through a span builder (:class:`~repro.obs.spans
   .SpanBuilder` — unchanged from the sim) and the invariant oracle.
   Only the location-independent checkers run: :class:`~repro.verify
   .oracle.ExactlyOnceDelivery` and :class:`~repro.verify.oracle
   .NoLostResult`.  Order-sensitive checkers (causal wired order) would
   false-positive on a merged multi-process trace, where cross-process
   timestamps are close but not causal.
"""

from __future__ import annotations

import asyncio
import heapq
import json
import multiprocessing
import os
import socket
import tempfile
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..config import WiredFaultSpec
from ..engine import Engine
from ..hosts.api import RdpClient
from ..hosts.mobile_host import MobileHost
from ..instruments import Instruments
from ..obs.spans import SpanBuilder, SpanReport
from ..sim.rng import RngStreams
from ..sim.tracing import TraceRecorder
from ..types import CellId, NodeId, mss_id, server_id
from ..verify.oracle import ExactlyOnceDelivery, NoLostResult, Oracle
from .clock import LiveClock
from .codec import CodecError, decode_envelope, encode_envelope
from .engine import AsyncioEngine
from .node import ChildConfig, run_mss_process
from .transport import LiveWirelessHostSide

Address = Tuple[str, int]
_Row = Tuple[float, str, str, Dict[str, Any]]


@dataclass
class ClusterSpec:
    """One live run, fully described (seed in, verdict out)."""

    seed: int = 2026
    n_cells: int = 3
    n_hosts: int = 3
    requests_per_host: int = 5
    service: str = "app"
    server_name: str = "app0"
    wired_loss: float = 0.10
    wireless_loss: float = 0.0
    retry_interval: float = 4.0        # client-level request retry
    proxy_ack_timeout: float = 2.0     # proxy-side result redelivery
    wireless_ack_timeout: float = 1.0  # MSS-side downlink redelivery
    request_gap: float = 0.15          # between one host's requests
    host_stagger: float = 0.05         # between hosts' schedules
    migrate_at: float = 0.4            # first host hops one cell over
    deadline: float = 30.0             # hard wall-clock cap on the run
    grace: float = 1.5                 # post-quiescence ack settling
    poll_interval: float = 0.05
    trace_dir: Optional[str] = None    # default: a TemporaryDirectory


@dataclass
class ClusterResult:
    """What came back: spans, invariants, latencies, the gate."""

    expected: int
    issued: int
    completed: int
    report: SpanReport
    violations: List[str]
    latencies: List[float] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0
    notes: List[str] = field(default_factory=list)

    @property
    def accounted(self) -> bool:
        return self.report.issued == self.issued

    @property
    def ok(self) -> bool:
        return (self.issued == self.expected
                and self.completed == self.expected
                and self.accounted
                and not self.violations)


def schedule_workload(engine: Engine, spec: ClusterSpec,
                      clients: Sequence[RdpClient],
                      cells: Sequence[CellId]) -> None:
    """The run's traffic, on whichever engine hosts *clients* (``h0``,
    ``h1``, … in order): each issues its request schedule, staggered so
    uplinks interleave, and the first hops one cell over while its
    requests are in flight — the hand-off must chase the results."""
    for i, client in enumerate(clients):
        for j in range(spec.requests_per_host):
            engine.schedule(
                0.1 + i * spec.host_stagger + j * spec.request_gap,
                client.request, spec.service, {"host": f"h{i}", "n": j},
                label="issue")
    if clients and len(cells) > 1:
        def _migrate() -> None:
            host = clients[0].host
            target = cells[(cells.index(host.current_cell) + 1) % len(cells)]
            host.migrate_to(target)
        engine.schedule(spec.migrate_at, _migrate, label="migrate")


def _bind_loopback() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    return sock


def _load_child_trace(path: str, notes: List[str]) -> Iterator[_Row]:
    """One child's JSONL rows.  A child terminated mid-dump leaves a cut
    last line: the rows before it are kept, and a note says so."""
    kept = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                notes.append(f"truncated child trace {os.path.basename(path)}: "
                             f"kept {kept} rows")
                return
            kept += 1
            yield row["time"], row["kind"], row["node"], row.get("fields", {})


def _in_time_order(rows: Iterable[_Row], name: str,
                   notes: List[str]) -> Iterator[_Row]:
    """*rows* unchanged; notes the first row earlier than the one before
    it (past that row, the merge of the streams is no longer a sort)."""
    last, noted = float("-inf"), False
    for n, row in enumerate(rows, 1):
        if row[0] < last and not noted:
            noted = True
            notes.append(f"trace rows of {name} out of time order at row {n}")
        last = row[0]
        yield row


class _Driver:
    """Driver-side runtime state for one cluster run."""

    def __init__(self, spec: ClusterSpec, clock: LiveClock,
                 loop: asyncio.AbstractEventLoop, sock: socket.socket,
                 stations: Dict[CellId, Tuple[NodeId, Address]]) -> None:
        self.spec = spec
        self.sock = sock
        self.engine = AsyncioEngine(loop, clock)
        self.recorder = TraceRecorder()
        self.instruments = Instruments(recorder=self.recorder)
        self.wireless = LiveWirelessHostSide(
            self.engine, sock, stations,
            loss_probability=spec.wireless_loss,
            rng=RngStreams(spec.seed).stream("live.wireless"),
            recorder=self.recorder,
            monitor=self.instruments.monitor,
        )
        self.clients: Dict[str, RdpClient] = {}
        self.ready: set = set()
        self.ready_event = asyncio.Event()
        self.expected_ready = len(stations)

    def on_readable(self) -> None:
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
        if tag == "wmsg":
            self.wireless.on_datagram(obj)
        elif tag == "ctrl" and obj.get("op") == "ready":
            self.ready.add(obj.get("src"))
            if len(self.ready) >= self.expected_ready:
                self.ready_event.set()

    def add_host(self, name: str, cell: CellId) -> RdpClient:
        host = MobileHost(self.engine, name, self.wireless,
                          instruments=self.instruments)
        client = RdpClient(host, retry_interval=self.spec.retry_interval)
        self.clients[name] = client
        host.join(cell)
        return client

    @property
    def outstanding(self) -> int:
        return sum(len(c.outstanding) for c in self.clients.values())


def run_cluster(spec: ClusterSpec) -> ClusterResult:
    """Run one live loopback cluster end to end and judge the outcome."""
    tmp: Optional[tempfile.TemporaryDirectory] = None
    trace_dir = spec.trace_dir
    if trace_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="rdp-live-")
        trace_dir = tmp.name
    os.makedirs(trace_dir, exist_ok=True)
    try:
        return _run(spec, trace_dir)
    finally:
        if tmp is not None:
            tmp.cleanup()


def _run(spec: ClusterSpec, trace_dir: str) -> ClusterResult:
    clock = LiveClock.start()
    cells = [CellId(f"cell{i}") for i in range(spec.n_cells)]
    station_names = [f"s{i}" for i in range(spec.n_cells)]
    station_nodes = [mss_id(name) for name in station_names]

    child_socks = [_bind_loopback() for _ in station_names]
    driver_sock = _bind_loopback()
    driver_addr = driver_sock.getsockname()

    addresses: Dict[str, Address] = {
        str(node): sock.getsockname()
        for node, sock in zip(station_nodes, child_socks)
    }
    # Servers are co-hosted in station 0's process: their wired node ids
    # resolve to that process's socket.
    server_node = server_id(spec.server_name)
    addresses[str(server_node)] = child_socks[0].getsockname()
    services = ((spec.service, str(server_node)),)

    wired_faults = (WiredFaultSpec(loss=spec.wired_loss)
                    if spec.wired_loss > 0 else None)

    ctx = multiprocessing.get_context("fork")
    procs = []
    trace_paths = []
    for i, name in enumerate(station_names):
        trace_path = os.path.join(trace_dir, f"trace_{name}.jsonl")
        trace_paths.append(trace_path)
        config = ChildConfig(
            index=i + 1,
            station=name,
            cell=str(cells[i]),
            epoch=clock.epoch,
            seed=spec.seed,
            addresses=addresses,
            driver_addr=driver_addr,
            servers=((spec.server_name, spec.service),) if i == 0 else (),
            services=services,
            wired_faults=wired_faults,
            proxy_ack_timeout=spec.proxy_ack_timeout,
            wireless_ack_timeout=spec.wireless_ack_timeout,
            trace_path=trace_path,
        )
        proc = ctx.Process(target=run_mss_process,
                           args=(config, child_socks[i]),
                           name=f"rdp-live-{name}", daemon=True)
        proc.start()
        procs.append(proc)
    for sock in child_socks:
        sock.close()  # the children own them now

    stations = {
        cell: (node, addresses[str(node)])
        for cell, node in zip(cells, station_nodes)
    }

    loop = asyncio.new_event_loop()
    asyncio.set_event_loop(loop)
    driver_sock.setblocking(False)
    driver = _Driver(spec, clock, loop, driver_sock, stations)
    notes: List[str] = []
    try:
        loop.add_reader(driver_sock.fileno(), driver.on_readable)
        loop.run_until_complete(_drive(spec, driver, cells, notes))
    finally:
        loop.remove_reader(driver_sock.fileno())
        _shutdown(driver_sock, addresses, station_nodes, procs, notes)
        loop.close()
        driver_sock.close()

    return _judge(spec, driver, trace_paths, clock, notes)


async def _drive(spec: ClusterSpec, driver: _Driver,
                 cells: List[CellId], notes: List[str]) -> None:
    try:
        await asyncio.wait_for(driver.ready_event.wait(), timeout=10.0)
    except asyncio.TimeoutError:
        notes.append(f"only {len(driver.ready)}/{driver.expected_ready} "
                     f"stations reported ready")

    # Hosts join round-robin across cells.
    clients = [driver.add_host(f"h{i}", cells[i % len(cells)])
               for i in range(spec.n_hosts)]
    schedule_workload(driver.engine, spec, clients, cells)

    expected = spec.n_hosts * spec.requests_per_host
    start = driver.engine.now
    while driver.engine.now - start < spec.deadline:
        await asyncio.sleep(spec.poll_interval)
        issued = sum(len(c.requests) for c in driver.clients.values())
        if issued >= expected and driver.outstanding == 0:
            break
    else:
        notes.append(f"deadline hit with {driver.outstanding} outstanding")

    # Quiescent at the client layer; let the ack/dereg tails settle so
    # the merged trace closes its spans (proxy_ack needs the wireless
    # Ack plus a wired hop, under loss).
    await asyncio.sleep(spec.grace)
    for client in driver.clients.values():
        client.cancel_retries()


def _shutdown(driver_sock: socket.socket, addresses: Dict[str, Address],
              station_nodes: List[NodeId], procs: List[Any],
              notes: List[str]) -> None:
    stop = encode_envelope({"t": "ctrl", "op": "stop"})
    for _ in range(3):  # UDP: belt and braces
        for node in station_nodes:
            try:
                driver_sock.sendto(stop, addresses[str(node)])
            except OSError:
                pass
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            notes.append(f"{proc.name} did not stop; terminating")
            proc.terminate()
            proc.join(timeout=2.0)


def _judge(spec: ClusterSpec, driver: _Driver, trace_paths: List[str],
           clock: LiveClock, notes: List[str]) -> ClusterResult:
    streams = [_in_time_order(driver.recorder.rows(), "the driver", notes)]
    for path in trace_paths:
        name = os.path.basename(path)
        if not os.path.exists(path):
            # An idle station writes an empty file; a *missing* one means
            # the child died before its shutdown dump.
            notes.append(f"missing child trace {name}")
            continue
        streams.append(_in_time_order(_load_child_trace(path, notes), name, notes))

    # Each process records in clock order, so merging by time is a stable
    # sort (ties: the driver, then the children in order) that holds one
    # row per process; each row reaches the sinks as one view, then goes.
    builder = SpanBuilder()
    replay = TraceRecorder()
    replay.add_sink(builder.on_record, SpanBuilder.KINDS)
    oracle = Oracle([ExactlyOnceDelivery(), NoLostResult()]).attach(replay)
    counts: Dict[str, int] = {}
    time = 0.0
    for time, kind, node, fields in heapq.merge(*streams, key=itemgetter(0)):
        counts[kind] = counts.get(kind, 0) + 1
        replay.dispatch(time, kind, node, fields)
    oracle.finish(time)

    latencies: List[float] = []
    completed = 0
    for client in driver.clients.values():
        latencies.extend(client.latencies())
        completed += len(client.completed)
    issued = sum(len(c.requests) for c in driver.clients.values())

    return ClusterResult(
        expected=spec.n_hosts * spec.requests_per_host,
        issued=issued,
        completed=completed,
        report=builder.report(),
        violations=[str(v) for v in oracle.violations],
        latencies=sorted(latencies),
        counts=counts,
        wall_time=clock.now(),
        notes=notes,
    )
