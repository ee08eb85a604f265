"""World assembly: build a complete simulated deployment from a config.

A :class:`World` owns the simulator, the instrumentation bundle, both
networks, the directory, one MSS per cell, and factories for servers,
mobile hosts and mobility processes.  Examples, tests and experiments all
go through this module.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Type

from .config import LatencySpec, WorldConfig
from .core.placement import (
    CurrentCellPlacement,
    HomeMssPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
)
from .errors import ConfigError
from .hosts.api import RdpClient
from .hosts.mobile_host import MobileHost
from .instruments import Instruments
from .mobility.cellmap import (
    CellMap,
    complete_topology,
    grid_topology,
    line_topology,
    ring_topology,
)
from .mobility.driver import MobilityDriver
from .mobility.models import MobilityModel, ResidenceTime
from .net.directory import DirectoryService
from .net.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    NormalLatency,
    UniformLatency,
)
from .net.faults import wired_plan, wireless_plan
from .net.wired import WiredNetwork
from .net.wireless import WirelessChannel
from .servers.base import AppServer
from .sim import RngStreams, Simulator, TraceRecorder
from .stations.mss import MobileSupportStation, MssConfig
from .types import CellId, NodeId


def build_latency(spec: LatencySpec) -> LatencyModel:
    """Instantiate the latency model described by *spec*."""
    if spec.kind == "constant":
        return ConstantLatency(spec.mean)
    if spec.kind == "uniform":
        half = min(spec.spread, spec.mean)
        return UniformLatency(spec.mean - half, spec.mean + half)
    if spec.kind == "exponential":
        floor = max(0.0, spec.mean - spec.spread) if spec.spread else 0.0
        return ExponentialLatency(scale=spec.mean - floor, floor=floor)
    if spec.kind == "normal":
        return NormalLatency(spec.mean, spec.spread)
    raise ConfigError(f"unknown latency kind {spec.kind!r}")


def _build_cellmap(config: WorldConfig) -> CellMap:
    if config.topology == "line":
        return line_topology(config.n_cells)
    if config.topology == "ring":
        return ring_topology(config.n_cells)
    if config.topology == "complete":
        return complete_topology(config.n_cells)
    if config.topology == "grid":
        return grid_topology(config.grid_width, config.grid_height)
    raise ConfigError(f"unknown topology {config.topology!r}")


class World:
    """A fully wired simulated deployment."""

    def __init__(self, config: Optional[WorldConfig] = None,
                 mss_class: Type[MobileSupportStation] = MobileSupportStation,
                 instruments: Optional[Instruments] = None) -> None:
        self.config = config or WorldConfig()
        self.sim = Simulator()
        self.rng = RngStreams(self.config.seed)
        # An explicit bundle wins over the config's trace flag — the
        # observe experiment passes a recorder filtered to span kinds
        # with an online SpanBuilder sink already attached.
        self.instruments = (
            instruments if instruments is not None
            else Instruments() if self.config.trace
            else Instruments.disabled())
        self.directory = DirectoryService()
        self.cell_map = _build_cellmap(self.config)
        # One station per cell, fixed here: resolve the sorted list once.
        self._cells = self.cell_map.cells

        self._node_positions: Dict[NodeId, tuple] = {}
        self.wired = WiredNetwork(
            self.sim,
            latency=build_latency(self.config.wired_latency),
            rng=self.rng.stream("latency.wired"),
            recorder=self.instruments.recorder,
            monitor=self.instruments.monitor,
            ordering=self.config.ordering,
            pairwise_delay=(self._distance_delay
                            if self.config.wired_distance_delay else None),
            faults=wired_plan(self.config.wired_faults, self.rng),
            reliable=self.config.wired_reliable,
            retry=self.config.wired_retry,
            retry_rng=self.rng.stream("reliable.wired"),
            transport=self.config.wired_transport,
            window=self.config.wired_window,
        )
        self.wireless = WirelessChannel(
            self.sim,
            latency=build_latency(self.config.wireless_latency),
            loss_probability=self.config.wireless_loss,
            rng=self.rng.stream("latency.wireless"),
            recorder=self.instruments.recorder,
            monitor=self.instruments.monitor,
            bandwidth_bps=self.config.wireless_bandwidth_bps,
            faults=wireless_plan(self.config.wireless_faults, self.rng),
        )

        self.stations: Dict[CellId, MobileSupportStation] = {}
        self.hosts: Dict[str, MobileHost] = {}
        self.clients: Dict[str, RdpClient] = {}
        self.servers: Dict[str, AppServer] = {}
        self.drivers: List[MobilityDriver] = []
        self._home_table: Dict[NodeId, NodeId] = {}

        placement = self._build_placement()
        mss_config = MssConfig(
            proc_delay=self.config.proc_delay,
            ack_priority=self.config.ack_priority,
            send_server_acks=self.config.send_server_acks,
            persistent_proxies=self.config.persistent_proxies,
            placement=placement,
            retain_results=self.config.retain_results,
            proxy_ack_timeout=(
                self.config.proxy_ack_timeout
                if self.config.proxy_ack_timeout is not None
                else (5.0 if self.config.wired_faults is not None else None)),
            wireless_ack_timeout=self._wireless_ack_timeout(),
            proxy_custody_ttl=self.config.proxy_custody_ttl,
            proxy_migrate_distance=self.config.proxy_migrate_distance,
            station_distance=(self._station_distance
                              if self.config.proxy_migrate_distance else None),
        )
        for index, cell in enumerate(self._cells):
            station = mss_class(
                self.sim, f"s{index}", cell,
                self.wired, self.wireless, self.directory,
                instruments=self.instruments, config=mss_config,
            )
            self.stations[cell] = station
            self._node_positions[station.node_id] = self.cell_map.position(cell)

    def _wireless_ack_timeout(self) -> Optional[float]:
        """Resolve the auto/off semantics of ``wireless_ack_timeout``."""
        value = self.config.wireless_ack_timeout
        if value is None:
            return 3.0 if self.config.wireless_faults is not None else None
        return value if value > 0 else None

    def _greet_backoff_cap(self) -> Optional[float]:
        """Resolve the auto semantics of ``greet_backoff_cap``.

        Backoff only engages when a radio fault plan is present: in clean
        worlds the legacy fixed retry interval keeps historical event
        schedules (and therefore BENCH determinism) byte-identical.
        """
        if self.config.greet_backoff_cap is not None:
            return self.config.greet_backoff_cap
        if self.config.wireless_faults is not None:
            return 8.0 * self.config.greet_retry_interval
        return None

    # -- placement ----------------------------------------------------------------

    def _build_placement(self) -> Optional[PlacementPolicy]:
        if self.config.placement == "current":
            return CurrentCellPlacement()
        if self.config.placement == "home":
            # The home table fills in as hosts are added; bind lazily.
            return _DeferredHome(self)
        if self.config.placement == "least_loaded":
            return _DeferredLeastLoaded(self)
        raise ConfigError(f"unknown placement {self.config.placement!r}")

    def _centroid(self) -> tuple:
        positions = [self.cell_map.position(cell) for cell in self.cells]
        n = len(positions)
        return (sum(p[0] for p in positions) / n,
                sum(p[1] for p in positions) / n)

    def _station_distance(self, a: NodeId, b: NodeId) -> float:
        """Euclidean distance between two stations' cell positions."""
        centroid = self._centroid()
        pa = self._node_positions.get(a, centroid)
        pb = self._node_positions.get(b, centroid)
        return ((pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2) ** 0.5

    def _distance_delay(self, src: NodeId, dst: NodeId) -> float:
        """Propagation delay proportional to euclidean station distance
        (unknown nodes — servers — sit at the map centroid)."""
        unit = self.config.wired_distance_delay or 0.0
        centroid = self._centroid()
        a = self._node_positions.get(src, centroid)
        b = self._node_positions.get(dst, centroid)
        return unit * ((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2) ** 0.5

    # -- factories ------------------------------------------------------------------

    @property
    def cells(self) -> List[CellId]:
        return list(self._cells)

    def station(self, cell: CellId) -> MobileSupportStation:
        try:
            return self.stations[cell]
        except KeyError:
            raise ConfigError(f"unknown cell {cell!r}") from None

    def station_ids(self) -> List[NodeId]:
        return [self.stations[cell].node_id for cell in self.cells]

    def find_station(self, name: Any) -> MobileSupportStation:
        """Look a station up by cell id, station name (``s0``) or wired
        node id (``mss:s0``)."""
        station = self.stations.get(name)
        if station is not None:
            return station
        for station in self.stations.values():
            if station.name == name or station.node_id == name:
                return station
        raise ConfigError(f"unknown station {name!r}")

    # -- failure injection ----------------------------------------------------------

    def crash_mss(self, name: Any) -> MobileSupportStation:
        """Crash a station (by cell, name or node id): it loses all
        volatile state — inbox, proxies, prefs, registrations — and goes
        dark on both networks until :meth:`restart_mss`.  Idempotent."""
        station = self.find_station(name)
        station.crash()
        return station

    def restart_mss(self, name: Any) -> MobileSupportStation:
        """Restart a crashed station with empty state.  Orphaned hosts
        re-register through the registration-nack path and dangling prefs
        recover through proxy-gone bounces (see docs/FAULTS.md)."""
        station = self.find_station(name)
        station.restart()
        return station

    def crash_mh(self, name: str) -> MobileHost:
        """Crash a mobile host: volatile state is lost, the durable
        client log survives.  Bring it back with :meth:`recover_mh`."""
        host = self.hosts[name]
        host.crash()
        return host

    def recover_mh(self, name: str, cell: CellId) -> MobileHost:
        """Recover a crashed host in *cell*: re-register, replay the
        durable log's unanswered requests, dedup redeliveries."""
        host = self.hosts[name]
        host.recover(cell)
        return host

    def doze_mh(self, name: str) -> MobileHost:
        """Put a host into doze mode (radio off, state kept)."""
        host = self.hosts[name]
        host.doze()
        return host

    def wake_mh(self, name: str) -> MobileHost:
        """Wake a dozing host; it re-registers in its current cell."""
        host = self.hosts[name]
        host.wake()
        return host

    def add_server(self, name: str, server_class: Type[AppServer] = AppServer,
                   **kwargs: Any) -> AppServer:
        if name in self.servers:
            raise ConfigError(f"server name {name!r} already in use")
        server = server_class(self.sim, name, self.wired, self.directory,
                              instruments=self.instruments, **kwargs)
        self.servers[name] = server
        return server

    def add_host(self, name: str, cell: CellId, join: bool = True,
                 retry_interval: Optional[float] = None) -> RdpClient:
        """Create a mobile host plus its client API, optionally joining."""
        if name in self.hosts:
            raise ConfigError(f"host name {name!r} already in use")
        if cell not in self.cell_map:
            raise ConfigError(f"unknown cell {cell!r}")
        host = MobileHost(
            self.sim, name, self.wireless,
            instruments=self.instruments,
            greet_retry_interval=self.config.greet_retry_interval,
            greet_backoff_cap=self._greet_backoff_cap(),
            ack_delay=self.config.ack_delay,
        )
        self.hosts[name] = host
        self._home_table[host.node_id] = self.stations[cell].node_id
        client = RdpClient(host, retry_interval=retry_interval)
        self.clients[name] = client
        if join:
            host.join(cell)
        return client

    def add_mobility(self, name: str, model: MobilityModel,
                     residence: ResidenceTime,
                     max_migrations: Optional[int] = None,
                     start: bool = True) -> MobilityDriver:
        host = self.hosts[name]
        driver = MobilityDriver(
            self.sim, host, model, residence,
            rng=self.rng.stream(f"mobility.{name}"),
            max_migrations=max_migrations,
        )
        self.drivers.append(driver)
        if start:
            driver.start()
        return driver

    def mobility_rng(self, name: str) -> random.Random:
        return self.rng.stream(f"mobility.{name}")

    # -- running ----------------------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    def run_until_idle(self, max_events: int = 10_000_000) -> None:
        """Stop mobility/retry processes, then drain all remaining events."""
        for driver in self.drivers:
            driver.stop()
        self.sim.run_until_idle(max_events=max_events)

    # -- observation -------------------------------------------------------------------

    @property
    def recorder(self) -> TraceRecorder:
        return self.instruments.recorder

    @property
    def metrics(self):
        return self.instruments.metrics

    @property
    def monitor(self):
        return self.instruments.monitor

    def live_proxy_count(self) -> int:
        return sum(len(s.proxies) for s in self.stations.values())

    def proxies_of(self, host_name: str) -> list:
        mh = self.hosts[host_name].node_id
        return [proxy for station in self.stations.values()
                for proxy in station.proxies.values() if proxy.mh == mh]


class _DeferredHome(PlacementPolicy):
    """Home placement bound to a world (the table fills as hosts join)."""

    name = "home"

    def __init__(self, world: World) -> None:
        self.world = world

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        return HomeMssPlacement(self.world._home_table).place(mh, resp_mss)


class _DeferredLeastLoaded(PlacementPolicy):
    """Least-loaded placement bound to a world (stations exist lazily).

    The score combines the observed message load with the number of
    proxies this policy already placed at each MSS — observed load alone
    is stale when a burst of requests arrives within one network
    round-trip, which would dogpile a single station.
    """

    name = "least_loaded"

    PLACEMENT_WEIGHT = 50

    def __init__(self, world: World) -> None:
        self.world = world
        self._placements: Dict[NodeId, int] = {}

    def place(self, mh: NodeId, resp_mss: NodeId) -> NodeId:
        stations = self.world.station_ids()
        monitor = self.world.instruments.monitor

        def score(node: NodeId) -> tuple:
            placed = self._placements.get(node, 0)
            return (monitor.load_of(node) + self.PLACEMENT_WEIGHT * placed, node)

        chosen = min(stations, key=score)
        self._placements[chosen] = self._placements.get(chosen, 0) + 1
        return chosen
