"""The declarative shard-boundary and ownership spec.

The ROADMAP's sharded-kernel refactor partitions the world into regions
that share nothing: every component instance (an MSS, a proxy, a mobile
host, a server) lives in exactly one region, owns its own state, and
interacts with other components *only* through the declared channels
(``net/wired.py``, ``net/wireless.py``, ``net/directory.py``).  This
module states that discipline as data; :mod:`.shard_rules` (SHD001-006)
enforces it against the tree via the dataflow engine.

The spec has four layers:

* **path classification** — which component (or exempt role) each source
  file belongs to.  ``harness`` files (the world assembler, experiments,
  analysis, observability) compose components and are exempt: they run
  outside any shard.  ``channel`` files *are* the boundary; ``kernel``
  is the per-region simulator infrastructure; ``data`` is plain shared
  value types (messages, ids, errors).
* **boundary classes** — the classes whose instances are shard units
  (plus the structural Protocols that stand in for them).  The SHD rules
  reason about expressions of these types; component-internal records
  (prefs, request records, window state) are each component's own
  business.
* **sanctioned references** — the few attribute slots that may legally
  hold a boundary-class object across calls, each one a documented
  co-location: a proxy lives inside its hosting MSS, a client API and a
  mobility driver wrap their own mobile host.
* **RNG-stream ownership** — which role may derive each named
  :class:`~repro.sim.rng.RngStreams` substream.  Drawing from a stream
  another component owns couples shards through the generator state.

Fixture trees in tests reuse the same relative paths
(``stations/mss.py`` ...), so the spec applies to them unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

#: Roles a source file can play.  Only ``component`` files own shardable
#: state; the rest are exempt from one or more SHD rules (see each
#: rule's docstring for exactly which).
ROLE_COMPONENT = "component"
ROLE_CHANNEL = "channel"
ROLE_KERNEL = "kernel"
ROLE_HARNESS = "harness"
ROLE_DATA = "data"

#: The shardable components.
COMPONENT_MSS = "mss"
COMPONENT_PROXY = "proxy"
COMPONENT_MH = "mh"
COMPONENT_SERVER = "server"

COMPONENTS: Tuple[str, ...] = (
    COMPONENT_MSS, COMPONENT_PROXY, COMPONENT_MH, COMPONENT_SERVER)


@dataclass(frozen=True)
class FileClassification:
    """What the spec says about one source file."""

    role: str
    component: Optional[str] = None  # set iff role == ROLE_COMPONENT


#: Ordered (prefix, role, component) rules; first match wins.  Paths are
#: relative to the scan root (the ``repro`` package) with posix
#: separators; an optional ``src/repro/`` prefix is stripped first so
#: scanning a repo root classifies identically.
_PATH_RULES: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("stations/", ROLE_COMPONENT, COMPONENT_MSS),
    ("baselines/", ROLE_COMPONENT, COMPONENT_MSS),
    ("core/proxy.py", ROLE_COMPONENT, COMPONENT_PROXY),
    ("core/placement.py", ROLE_COMPONENT, COMPONENT_MSS),
    ("core/protocol.py", ROLE_DATA, None),
    ("core/", ROLE_DATA, None),
    ("hosts/", ROLE_COMPONENT, COMPONENT_MH),
    ("mobility/", ROLE_COMPONENT, COMPONENT_MH),
    # The TIS overlay builder is the servers' composition root: it
    # constructs the server fleet and wires overlay routes before the
    # sim runs, exactly like world.py does for everything else.
    ("servers/tis_network.py", ROLE_HARNESS, None),
    ("servers/", ROLE_COMPONENT, COMPONENT_SERVER),
    # The legal cross-component channels -- and their internal layers
    # (reliable transport, fault plans, latency models, causal ordering)
    # which sit strictly below the channel API.
    ("net/", ROLE_CHANNEL, None),
    # Per-region infrastructure: the event loop, rng derivation, tracing.
    ("sim/", ROLE_KERNEL, None),
    # Composition roots and tooling run outside any shard.
    ("world.py", ROLE_HARNESS, None),
    ("config.py", ROLE_HARNESS, None),
    ("instruments.py", ROLE_HARNESS, None),
    ("experiments/", ROLE_HARNESS, None),
    ("analysis/", ROLE_HARNESS, None),
    ("verify/", ROLE_HARNESS, None),
    ("obs/", ROLE_HARNESS, None),
    ("sidam/", ROLE_HARNESS, None),
    ("tests/", ROLE_HARNESS, None),
    ("types.py", ROLE_DATA, None),
    ("errors.py", ROLE_DATA, None),
)


def classify_path(rel: str) -> FileClassification:
    """Classify a scan-root-relative posix path.

    Unmatched files default to ``harness`` — a new component directory
    must be added to ``_PATH_RULES`` before the SHD rules guard it.
    """
    if rel.startswith("src/repro/"):
        rel = rel[len("src/repro/"):]
    elif rel.startswith("repro/"):
        rel = rel[len("repro/"):]
    for prefix, role, component in _PATH_RULES:
        if rel.startswith(prefix):
            return FileClassification(role=role, component=component)
    return FileClassification(role=ROLE_HARNESS)


#: Boundary classes: the shard-unit classes themselves plus the
#: structural Protocols other modules use to talk about them.  Any class
#: that (transitively) subclasses one of the concrete names inherits its
#: component through the dataflow class index.
BOUNDARY_CLASSES: Dict[str, str] = {
    "MobileSupportStation": COMPONENT_MSS,
    "WirelessStation": COMPONENT_MSS,   # structural stand-in for an MSS
    "ProxyHost": COMPONENT_MSS,         # the proxy's view of its host MSS
    "Proxy": COMPONENT_PROXY,
    "MobileHost": COMPONENT_MH,
    "WirelessHost": COMPONENT_MH,       # structural stand-in for an MH
    "AppServer": COMPONENT_SERVER,
}

#: Sanctioned boundary references: (holder class, attribute) slots that
#: may hold a boundary-class object, each a by-construction co-location
#: (same shard, by definition) rather than a cross-shard alias.
ALLOWED_REFS: FrozenSet[Tuple[str, str]] = frozenset({
    # A proxy lives inside its hosting MSS and borrows its network
    # identity (core/proxy.py module docstring).
    ("Proxy", "host"),
    # An MSS hosts its proxies; the registry is the hosting relation.
    ("MobileSupportStation", "proxies"),
    # The client API and mobility/activity drivers run *on* the MH.
    ("RdpClient", "host"),
    ("QueuedRpcClient", "host"),
    ("MobilityDriver", "host"),
    ("ActivityProcess", "host"),
})

#: Which component may construct (and thereby capture ``self`` into)
#: instances of a boundary class: the hosting relation, seen from the
#: constructor side.
HOSTED_BY: Dict[str, str] = {
    "Proxy": COMPONENT_MSS,
}

#: RNG-stream ownership: (stream-name prefix, owning role-or-component).
#: An entry ending in ``.`` is a prefix family; others match exactly.
#: The world assembler (harness) derives and distributes streams freely;
#: everyone else may only derive streams they own.
STREAM_OWNERS: Tuple[Tuple[str, str], ...] = (
    ("faults.wired", ROLE_CHANNEL),
    ("faults.wireless", ROLE_CHANNEL),
    ("latency.wired", ROLE_CHANNEL),
    ("reliable.wired", ROLE_CHANNEL),
    ("latency.wireless", ROLE_CHANNEL),
    ("mobility.", COMPONENT_MH),
)


def stream_owner(name: str) -> Optional[str]:
    """The role/component that owns stream *name*, or None if unknown."""
    for pattern, owner in STREAM_OWNERS:
        if pattern.endswith("."):
            if name.startswith(pattern):
                return owner
        elif name == pattern:
            return owner
    return None


def may_draw_stream(classification: FileClassification, name: str) -> bool:
    """May code with this classification derive the named stream?"""
    if classification.role in (ROLE_HARNESS, ROLE_KERNEL):
        return True  # assembler distributes; the kernel implements rng
    owner = stream_owner(name)
    if owner is None:
        return False  # undeclared stream: register it in STREAM_OWNERS
    if classification.role == ROLE_CHANNEL:
        return owner == ROLE_CHANNEL
    return owner == classification.component


__all__ = [
    "ALLOWED_REFS",
    "BOUNDARY_CLASSES",
    "COMPONENTS",
    "FileClassification",
    "HOSTED_BY",
    "ROLE_CHANNEL",
    "ROLE_COMPONENT",
    "ROLE_DATA",
    "ROLE_HARNESS",
    "ROLE_KERNEL",
    "STREAM_OWNERS",
    "classify_path",
    "may_draw_stream",
    "stream_owner",
]
