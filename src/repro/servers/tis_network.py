"""The TIS overlay: builds and wires a network of Traffic Information
Servers.

Responsibilities:

* create one :class:`TrafficInfoServer` per overlay node and assign each a
  partition of the city's regions;
* connect the servers along an overlay graph and derive per-region
  next-hop routing tables (shortest path toward the region's owner) —
  or leave them empty to exercise the flooding data-location protocol;
* register directory entries: ``tis`` (the default entry point) plus
  ``tis.<server>`` for cell-local entry points;
* offer direct accessors used by workload drivers (synthetic traffic
  evolution applies updates at the owner).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..instruments import Instruments
from ..mobility.cellmap import bfs
from ..net.directory import DirectoryService
from ..net.latency import ConstantLatency, LatencyModel
from ..net.wired import WiredNetwork
from ..sim import Simulator
from .tis import TrafficInfoServer


class TisNetwork:
    """A set of interconnected Traffic Information Servers."""

    def __init__(
        self,
        sim: Simulator,
        wired: WiredNetwork,
        directory: DirectoryService,
        partitions: Mapping[str, Iterable[str]],
        overlay_edges: Sequence[Tuple[str, str]],
        instruments: Optional[Instruments] = None,
        service_time: Optional[LatencyModel] = None,
        use_routing: bool = True,
        lookup_timeout: float = 5.0,
        cache_ttl: float = 0.0,
    ) -> None:
        if not partitions:
            raise ConfigError("TIS network needs at least one server partition")
        self.sim = sim
        self.wired = wired
        self.directory = directory
        self.servers: Dict[str, TrafficInfoServer] = {}
        self.region_owner: Dict[str, str] = {}
        service_time = service_time or ConstantLatency(0.020)

        for server_name, regions in partitions.items():
            regions = set(regions)
            server = TrafficInfoServer(
                sim, server_name, wired, directory,
                service=f"tis.{server_name}",
                service_time=service_time,
                instruments=instruments,
                regions=regions,
                lookup_timeout=lookup_timeout,
                cache_ttl=cache_ttl,
            )
            self.servers[server_name] = server
            for region in regions:
                if region in self.region_owner:
                    raise ConfigError(f"region {region!r} assigned twice")
                self.region_owner[region] = server_name

        # Server -> neighbours in edge-insertion order (a dict as an ordered
        # set): bfs breaks route ties by this order.
        self.overlay: Dict[str, Dict[str, None]] = {name: {} for name in self.servers}
        for a, b in overlay_edges:
            if a not in self.servers or b not in self.servers:
                raise ConfigError(f"overlay edge ({a!r}, {b!r}) names unknown server")
            self.overlay[a][b] = self.overlay[b][a] = None

        for name, server in self.servers.items():
            server.neighbors = [self.servers[n].node_id
                                for n in sorted(self.overlay[name])]

        if use_routing:
            self._build_routes()

        # Default entry point: the first server in sorted order.
        first = sorted(self.servers)[0]
        directory.register("tis", self.servers[first].node_id)

    def _build_routes(self) -> None:
        """Per-region next-hop tables along overlay shortest paths."""
        for name, server in self.servers.items():
            reached = bfs(self.overlay, name)
            for region, owner in self.region_owner.items():
                if owner != name and owner in reached:
                    server.routes[region] = self.servers[reached[owner][1]].node_id

    # -- accessors -----------------------------------------------------------------

    def owner_of(self, region: str) -> TrafficInfoServer:
        try:
            return self.servers[self.region_owner[region]]
        except KeyError:
            raise ConfigError(f"unknown region {region!r}") from None

    def regions(self) -> List[str]:
        return sorted(self.region_owner)

    def apply_external_update(self, region: str, level: float) -> int:
        """Apply an update directly at the owner (synthetic traffic feed)."""
        return self.owner_of(region).apply_update(region, level)

    def level_of(self, region: str) -> float:
        return self.owner_of(region).store[region].level
