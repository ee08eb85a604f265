"""The benchmark's own recorder: host time and calls, per layer.

A traced run brackets the calls into the program with ``cProfile`` and
folds the profile into *layers* (groups of source modules, the names
``BENCHMARK.json`` lists).  For every layer:

* ``self_s`` — host time spent in the layer's own functions, plus the
  time of builtins and standard-library functions it called (charged up
  the caller graph to the nearest layer function, split between callers
  in proportion to the time each caller's calls took);
* ``calls`` — calls that crossed into the layer from another layer.

Self times partition the profiled interval, so they add up to the traced
wall time.  ``cProfile`` charges its hook to every Python-level call and
nothing to time inside C, which overstates call-heavy layers somewhat;
the table says where time goes, the untraced run says how much there is.

For ``live-rate`` the forked station processes are traced too: while
:func:`live_children_traced` is active, ``repro.live.cluster`` starts
children through a wrapper that profiles ``run_mss_process`` and leaves
the child's table next to its trace dump.
"""

from __future__ import annotations

import cProfile
import contextlib
import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.live import cluster as live_cluster

#: layer -> path fragments (matched against ``.../repro/<fragment>``).
#: First match wins; anything else under the profile lands in "other"
#: (scenario generators, world assembly, rng, and the benchmark itself).
LAYERS: List[Tuple[str, Tuple[str, ...]]] = [
    ("net.causal", ("net/causal.py", "net/vectorclock.py")),
    ("mobility", ("mobility/",)),
    ("sim.kernel", ("sim/simulator.py", "sim/process.py", "sim/event.py")),
    ("obs.metrics", ("net/monitor.py", "obs/registry.py",
                     "analysis/metrics.py", "instruments.py")),
    ("net.message", ("net/message.py",)),
    ("net.reliable", ("net/reliable.py",)),
    ("net.faults", ("net/faults.py",)),
    ("net.wired", ("net/wired.py",)),
    ("net.wireless", ("net/wireless.py",)),
    ("stations.mss", ("stations/",)),
    ("core.proxy", ("core/",)),
    ("hosts.mh", ("hosts/",)),
    ("servers.app", ("servers/",)),
    ("obs.tracing", ("sim/tracing.py", "verify/oracle.py", "obs/spans.py")),
    ("live.codec", ("live/codec.py",)),
    ("live.transport", ("live/transport.py", "live/channel.py")),
    ("live.engine", ("live/engine.py", "live/clock.py")),
    ("live.cluster", ("live/cluster.py", "live/node.py")),
]
OTHER = "other"
LAYER_NAMES = [name for name, _ in LAYERS] + [OTHER]

#: Standard-library event-loop code is the live engine's substrate, not
#: a callee to charge upwards.
_ENGINE_STDLIB = ("/asyncio/", "/selectors.py", "/socket.py")

#: Named functions whose call counts (and, for some, cumulative time)
#: the layer table reports: counter name -> (file fragment, function).
PROBES: Dict[str, Tuple[str, str]] = {
    "net.causal.clock_compares": ("net/vectorclock.py", "dominates"),
    "obs.metrics.label_lookups": ("obs/registry.py", "labels"),
    "net.message.size_calls": ("net/message.py", "size_bytes"),
    "encode": ("live/codec.py", "encode_envelope"),
    "decode": ("live/codec.py", "decode_envelope"),
    "judge": ("live/cluster.py", "_judge"),
    "idle": ("", "<method 'poll' of 'select.epoll' objects>"),
}


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for code to charge to
    its caller (builtins, the standard library, generated code)."""
    marker = filename.rfind("/repro/")
    if marker >= 0:
        rel = filename[marker + len("/repro/"):]
        for name, fragments in LAYERS:
            if any(rel == f or (f.endswith("/") and rel.startswith(f))
                   for f in fragments):
                return name
        return OTHER
    if any(fragment in filename for fragment in _ENGINE_STDLIB):
        return "live.engine"
    if "/rdpbench/" in filename:
        return OTHER
    return None


def _key(code: Any) -> Tuple[str, str]:
    """(filename, function name) of a profile entry's code."""
    if isinstance(code, str):       # a builtin: no file
        return "", code
    return code.co_filename, code.co_name


def fold(stats: List[Any]) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` into the layer table."""
    owner = {id(e.code): layer_of(_key(e.code)[0]) for e in stats}
    self_s = {name: 0.0 for name in LAYER_NAMES}
    calls = {name: 0 for name in LAYER_NAMES}

    # Callers of each unowned function, weighted by the time the calls
    # took, so its time can be handed up the graph.
    callers: Dict[int, List[Tuple[int, float]]] = {}
    for entry in stats:
        for sub in entry.calls or ():
            if owner.get(id(sub.code)) is None:
                callers.setdefault(id(sub.code), []).append(
                    (id(entry.code), max(sub.totaltime, 0.0)))
            elif (owner[id(entry.code)] is not None
                  and owner[id(sub.code)] != owner[id(entry.code)]):
                calls[owner[id(sub.code)]] += sub.callcount

    pending: Dict[int, float] = {}
    for entry in stats:
        layer = owner[id(entry.code)]
        if layer is not None:
            self_s[layer] += entry.inlinetime
        else:
            pending[id(entry.code)] = entry.inlinetime
    # Relax: push each unowned function's time to its callers until it
    # has all reached a layer (recursion in the stdlib converges
    # geometrically; whatever is left after the rounds goes to "other").
    for _ in range(64):
        nxt: Dict[int, float] = {}
        for code_id, amount in pending.items():
            edges = callers.get(code_id)
            weight = sum(w for _, w in edges) if edges else 0.0
            if not edges or weight <= 0.0:
                self_s[OTHER] += amount     # profile root or zero-time edges
                continue
            for caller_id, w in edges:
                share = amount * w / weight
                layer = owner.get(caller_id)
                if layer is not None:
                    self_s[layer] += share
                else:
                    nxt[caller_id] = nxt.get(caller_id, 0.0) + share
        pending = {k: v for k, v in nxt.items() if v > 1e-9}
        if not pending:
            break
    self_s[OTHER] += sum(pending.values())

    probes: Dict[str, Dict[str, float]] = {}
    for entry in stats:
        filename, function = _key(entry.code)
        for probe, (fragment, name) in PROBES.items():
            if function == name and filename.endswith(fragment):
                hit = probes.setdefault(probe, {"calls": 0, "total_s": 0.0})
                hit["calls"] += entry.callcount
                hit["total_s"] += entry.totaltime
    return {"self_s": self_s, "calls": calls, "probes": probes}


def merge(tables: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum layer tables (one per traced process or traced phase)."""
    out: Dict[str, Any] = {
        "self_s": {name: 0.0 for name in LAYER_NAMES},
        "calls": {name: 0 for name in LAYER_NAMES},
        "probes": {},
        "wall_s": 0.0,
    }
    for table in tables:
        out["wall_s"] += table.get("wall_s", 0.0)
        for field in ("self_s", "calls"):
            for name, value in table[field].items():
                out[field][name] += value
        for probe, hit in table["probes"].items():
            acc = out["probes"].setdefault(probe, {"calls": 0, "total_s": 0.0})
            acc["calls"] += hit["calls"]
            acc["total_s"] += hit["total_s"]
    return out


class Recorder:
    """Profiles the calls it is asked to run; one table per call."""

    def __init__(self) -> None:
        self.tables: List[Dict[str, Any]] = []

    def around(self, fn: Callable[[], Any]) -> Any:
        profile = cProfile.Profile()
        started = time.perf_counter()
        profile.enable()
        try:
            return fn()
        finally:
            profile.disable()
            table = fold(profile.getstats())
            table["wall_s"] = time.perf_counter() - started
            self.tables.append(table)

    def table(self) -> Dict[str, Any]:
        return merge(self.tables)


@contextlib.contextmanager
def live_children_traced() -> Iterator[None]:
    """Profile every station process ``run_cluster`` forks meanwhile."""
    original = live_cluster.run_mss_process

    def traced_child(config: Any, sock: Any) -> None:
        recorder = Recorder()
        try:
            recorder.around(lambda: original(config, sock))
        finally:
            path = os.path.join(os.path.dirname(config.trace_path),
                                f"layers_{config.station}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(recorder.table(), fh)

    live_cluster.run_mss_process = traced_child
    try:
        yield
    finally:
        live_cluster.run_mss_process = original
