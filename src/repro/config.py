"""World configuration.

One :class:`WorldConfig` describes a complete simulated deployment: cell
topology, network characteristics, MSS behaviour and protocol options.
Experiments sweep these fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import ConfigError

TOPOLOGIES = ("line", "ring", "grid", "complete")
ORDERINGS = ("raw", "fifo", "causal")
LATENCY_KINDS = ("constant", "uniform", "exponential")
PLACEMENTS = ("current", "home", "least_loaded")


@dataclass
class LatencySpec:
    """Which latency model to build and with what mean."""

    kind: str = "constant"
    mean: float = 0.010
    spread: float = 0.0  # half-width (uniform), mean minus floor (exponential)

    def __post_init__(self) -> None:
        if self.kind not in LATENCY_KINDS:
            raise ConfigError(f"unknown latency kind {self.kind!r}")
        if self.mean < 0 or self.spread < 0:
            raise ConfigError(f"negative latency parameters in {self!r}")


@dataclass
class WiredFaultSpec:
    """Fault injection for the wired fabric (breaks assumption 1).

    Built into a seeded :class:`~repro.net.faults.FaultPlan` by the
    world (stream ``faults.wired``).  Partitions are
    ``(node_a, node_b, t0, t1)`` windows over wired node ids, e.g.
    ``(mss_id("s0"), mss_id("s1"), 20.0, 28.0)``.
    """

    loss: float = 0.0
    duplication: float = 0.0
    spike_probability: float = 0.0
    spike: float = 0.5
    reorder: float = 0.0
    reorder_spread: float = 0.5
    partitions: Tuple[Tuple[str, str, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name, rate in (("loss", self.loss),
                           ("duplication", self.duplication),
                           ("spike_probability", self.spike_probability),
                           ("reorder", self.reorder)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"wired fault {name} {rate!r} out of [0, 1]")
        if self.spike < 0:
            raise ConfigError(f"negative wired delay spike {self.spike!r}")
        if self.reorder_spread < 0:
            raise ConfigError(
                f"negative wired reorder spread {self.reorder_spread!r}")
        for window in self.partitions:
            if len(window) != 4:
                raise ConfigError(f"malformed partition window {window!r}")
            _a, _b, t0, t1 = window
            if t1 <= t0:
                raise ConfigError(f"empty partition window {window!r}")


@dataclass
class WirelessFaultSpec:
    """Fault injection for the radio last mile (what MHs actually see).

    Built into a seeded :class:`~repro.net.faults.WirelessFaultPlan` by
    the world (stream ``faults.wireless``).  Blackouts are
    ``(cell_id, t0, t1)`` absolute-time windows during which the whole
    cell is dark; ``handoff_blackout`` is the per-migration radio
    retuning window in seconds.
    """

    loss: float = 0.0
    burst_probability: float = 0.0
    burst_length: float = 1.0
    burst_loss: float = 1.0
    congestion_probability: float = 0.0
    congestion_delay: float = 0.25
    handoff_blackout: float = 0.0
    blackouts: Tuple[Tuple[str, float, float], ...] = ()

    def __post_init__(self) -> None:
        for name, rate in (("loss", self.loss),
                           ("burst_probability", self.burst_probability),
                           ("burst_loss", self.burst_loss),
                           ("congestion_probability", self.congestion_probability)):
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(f"wireless fault {name} {rate!r} out of [0, 1]")
        for name, duration in (("burst_length", self.burst_length),
                               ("congestion_delay", self.congestion_delay),
                               ("handoff_blackout", self.handoff_blackout)):
            if duration < 0:
                raise ConfigError(f"negative wireless {name} {duration!r}")
        for window in self.blackouts:
            if len(window) != 3:
                raise ConfigError(f"malformed blackout window {window!r}")
            _cell, t0, t1 = window
            if t1 <= t0:
                raise ConfigError(f"empty blackout window {window!r}")


@dataclass
class WorldConfig:
    """Everything needed to build a world."""

    seed: int = 0
    # topology
    n_cells: int = 3
    topology: str = "line"
    grid_width: int = 3
    grid_height: int = 3
    # networks
    wired_latency: LatencySpec = field(default_factory=lambda: LatencySpec(mean=0.010))
    wireless_latency: LatencySpec = field(default_factory=lambda: LatencySpec(mean=0.005))
    wireless_loss: float = 0.0
    # Shared per-cell radio bandwidth in bits/second; None = unlimited.
    wireless_bandwidth_bps: Optional[float] = None
    # Extra wired propagation delay per cell-map distance unit between
    # stations (servers sit at the map centroid); None = flat network.
    # Models geography: Mobile-IP-style home rendezvous pays triangle
    # routing, RDP's local proxies do not (experiment AN11).
    wired_distance_delay: Optional[float] = None
    # Wired fault injection; None = the paper's lossless fabric.
    wired_faults: Optional[WiredFaultSpec] = None
    # Radio fault injection beyond flat wireless_loss; None = off and the
    # channel stays on its historical RNG draw sequence.
    wireless_faults: Optional[WirelessFaultSpec] = None
    # MSS-side redelivery of unacknowledged downlink results.  None =
    # automatic: 3.0 s when wireless_faults is set, otherwise off (the
    # paper's fire-and-forget respMss).  <= 0 forces off even with
    # faults (AN16's no_recovery arm).
    wireless_ack_timeout: Optional[float] = None
    # Bound on how long a proxy keeps an undeliverable result in custody
    # before discarding it with a custody_expired trace.  None = keep
    # forever (the paper's unbounded result store).
    proxy_custody_ttl: Optional[float] = None
    # Reliable link transport under the ordering layer.  None = automatic
    # (on iff wired_faults is set); False with faults demonstrates what
    # the transport buys (AN14's link-off column); True without faults exercises
    # the ack machinery on a clean fabric.
    wired_reliable: Optional[bool] = None
    # Proxy-side redelivery of unacknowledged results (crash healing).
    # None = automatic: 5.0 s when wired_faults is set, otherwise off
    # (the paper's purely event-driven proxy).
    proxy_ack_timeout: Optional[float] = None
    ordering: str = "causal"
    # MSS behaviour
    proc_delay: float = 0.0
    ack_priority: bool = True
    placement: str = "current"
    persistent_proxies: bool = False
    send_server_acks: bool = False
    retain_results: bool = False  # paper Section 5, footnote 3
    # Proxy migration (future-work extension): pull the proxy to the
    # respMss once it is at least this many cell-map distance units away.
    # None = the paper's behaviour (proxies never move).
    proxy_migrate_distance: Optional[float] = None
    # MH behaviour
    greet_retry_interval: float = 1.0
    ack_delay: float = 0.0
    # instrumentation
    trace: bool = True

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigError(f"unknown topology {self.topology!r}")
        if self.ordering not in ORDERINGS:
            raise ConfigError(f"unknown ordering {self.ordering!r}")
        if self.placement not in PLACEMENTS:
            raise ConfigError(f"unknown placement {self.placement!r}")
        if self.n_cells < 1:
            raise ConfigError("need at least one cell")
        if self.topology == "grid" and (self.grid_width < 1
                                        or self.grid_height < 1):
            raise ConfigError("grid dimensions must be positive")
        if self.topology == "ring" and self.n_cells < 3:
            raise ConfigError("a ring needs at least three cells")
        # loss == 1.0 is a legal blackout scenario (nothing gets through).
        if not 0.0 <= self.wireless_loss <= 1.0:
            raise ConfigError(f"wireless loss {self.wireless_loss!r} out of range")
        if self.proc_delay < 0 or self.ack_delay < 0:
            raise ConfigError("delays must be non-negative")
        if self.proxy_custody_ttl is not None and self.proxy_custody_ttl <= 0:
            raise ConfigError(
                f"proxy custody ttl {self.proxy_custody_ttl!r} must be positive")
