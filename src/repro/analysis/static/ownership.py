"""RNG-stream ownership (rule ``SHD004``) and the path roles it reads.

Every named :class:`~repro.sim.rng.RngStreams` substream has one owner.
The assembler (``world.py``) derives streams and hands each to the
component that draws from it.  ``RngStreams.stream(name)`` returns one
generator per name, so a component that derives a stream another role
owns draws from the owner's generator, and every such draw shifts the
owner's sequence.  Seeded per-owner jitter (one stream per retry owner)
relies on that separation.

The spec has two layers:

* **path classification** — which component (or exempt role) each source
  file belongs to.  ``harness`` files (the world assembler, experiments,
  analysis, observability, the live processes' composition roots) build
  components and hand out their streams.  ``channel`` files are the
  wired/wireless networks and their layers; ``kernel`` is the simulator
  infrastructure; ``data`` is plain shared value types (messages, ids,
  errors).
* **stream ownership** — which role may derive each named stream.

Fixture trees in tests reuse the same relative paths
(``stations/mss.py`` ...), so the spec applies to them unchanged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .model import Finding, SourceTree

#: Roles a source file can play.
ROLE_COMPONENT = "component"
ROLE_CHANNEL = "channel"
ROLE_KERNEL = "kernel"
ROLE_HARNESS = "harness"
ROLE_DATA = "data"

#: The protocol components.
COMPONENT_MSS = "mss"
COMPONENT_PROXY = "proxy"
COMPONENT_MH = "mh"
COMPONENT_SERVER = "server"


@dataclass(frozen=True)
class FileClassification:
    """What the spec says about one source file."""

    role: str
    component: Optional[str] = None  # set iff role == ROLE_COMPONENT


#: Ordered (prefix, role, component) rules; first match wins.  Paths are
#: relative to the scan root (the ``repro`` package) with posix
#: separators; an optional ``src/repro/`` prefix is stripped first so
#: scanning a repo root classifies identically.  Every file of the
#: package matches an entry (a tier-1 test checks it).
_PATH_RULES: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("stations/", ROLE_COMPONENT, COMPONENT_MSS),
    ("baselines/", ROLE_COMPONENT, COMPONENT_MSS),
    ("core/proxy.py", ROLE_COMPONENT, COMPONENT_PROXY),
    ("core/placement.py", ROLE_COMPONENT, COMPONENT_MSS),
    ("core/", ROLE_DATA, None),
    ("hosts/", ROLE_COMPONENT, COMPONENT_MH),
    ("mobility/", ROLE_COMPONENT, COMPONENT_MH),
    # The TIS overlay builder is the servers' composition root: it
    # constructs the server fleet and wires overlay routes before the
    # sim runs, exactly like world.py does for everything else.
    ("servers/tis_network.py", ROLE_HARNESS, None),
    ("servers/", ROLE_COMPONENT, COMPONENT_SERVER),
    # The networks and their layers (reliable transport, fault plans,
    # latency models, causal ordering).
    ("net/", ROLE_CHANNEL, None),
    # The event loop, rng derivation, tracing.
    ("sim/", ROLE_KERNEL, None),
    # Composition roots and tooling.
    ("world.py", ROLE_HARNESS, None),
    ("config.py", ROLE_HARNESS, None),
    ("instruments.py", ROLE_HARNESS, None),
    # The Engine contract and the Ids allocator, built by whoever
    # assembles a world or a live process.
    ("engine.py", ROLE_HARNESS, None),
    ("__init__.py", ROLE_HARNESS, None),
    # The live backend: each process's composition root (cluster.py's
    # driver, node.py's station) derives its transports' streams
    # (``live.wireless``, ``live.wired.<station>``) the way world.py
    # does, and the package's other modules are built by those roots.
    ("live/", ROLE_HARNESS, None),
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

    A path no rule matches (only fixture trees have one) is ``harness``.
    """
    if rel.startswith("src/repro/"):
        rel = rel[len("src/repro/"):]
    elif rel.startswith("repro/"):
        rel = rel[len("repro/"):]
    for prefix, role, component in _PATH_RULES:
        if rel.startswith(prefix):
            return FileClassification(role=role, component=component)
    return FileClassification(role=ROLE_HARNESS)


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


def rule_stream_ownership(tree: SourceTree) -> List[Finding]:
    """SHD004: deriving an RNG substream another role owns."""
    findings: List[Finding] = []
    for src in tree:
        classification = classify_path(src.rel)
        for node in src.nodes(ast.Call):
            if not (isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("stream", "spawn")
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            name = node.args[0].value
            if may_draw_stream(classification, name):
                continue
            owner = (f"the {classification.component} component"
                     if classification.component is not None
                     else f"{classification.role} code")
            findings.append(Finding(
                rule="SHD004", path=src.rel, line=node.lineno,
                message=f"derives RNG stream '{name}' which {owner} does "
                        f"not own — foreign draws couple shards through "
                        f"generator state",
                hint="take the stream as a constructor argument from the "
                     "assembler, or register ownership in "
                     "ownership.STREAM_OWNERS",
                context=src.lines[node.lineno - 1].strip()))
    return findings


__all__ = [
    "FileClassification",
    "ROLE_CHANNEL",
    "ROLE_COMPONENT",
    "ROLE_DATA",
    "ROLE_HARNESS",
    "ROLE_KERNEL",
    "STREAM_OWNERS",
    "classify_path",
    "may_draw_stream",
    "rule_stream_ownership",
    "stream_owner",
]
