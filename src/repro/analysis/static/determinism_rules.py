"""Determinism passes (rule ids ``DET00x``).

The fuzz harness promises *byte-identical replay*: the same seed must
produce the same raw trace however many runs came before it.  These
rules flag code patterns that silently break that promise:

* DET001 — wall-clock reads (``time.time`` & friends) in simulator code;
  simulated time comes from :class:`repro.sim.Simulator`, wall time only
  from the CLI timing shim (``repro/experiments/_timing.py``).
* DET002 — process-global randomness (``random.random()``,
  ``random.Random()`` with no seed) instead of a seeded stream from
  :mod:`repro.sim.rng`.
* DET003 — ``id()``/``hash()`` values leaking into behaviour: both vary
  per process (``PYTHONHASHSEED``), so traces and sort orders built on
  them differ between runs.
* DET004 — iteration over a ``set`` with side effects (sends, trace
  records, scheduling) in the loop body: set order varies per process,
  so the emitted order does too.
* DET005 — a module-level ``itertools.count``: a global counter
  survives across runs inside one process, so its ids differ between a
  first and second run of the same seed.  Ids come from the engine's
  :class:`~repro.engine.Ids` (one per world) instead.

**Scope.**  The determinism contract is a *simulator* contract; the live
backend (``repro/live``) runs on real wall-clock sockets, where reading
``time.monotonic()`` is the whole point.  Every DET rule therefore skips
files under ``live/``.  The protocol/shard rules (RDP*, SHD*) still
apply there in full — live code shares the protocol entities and their
ownership rules, it only swaps the clock.  The live tree keeps the
exemption honest on its side by routing all wall-clock reads through
``repro/live/clock.py``.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple, TypeGuard

from .model import Finding, SourceFile, SourceTree, base_name

_WALLCLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"), ("time", "monotonic"),
    ("time", "monotonic_ns"), ("time", "perf_counter"),
    ("time", "perf_counter_ns"), ("time", "process_time"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
}

_RANDOM_MODULE_FUNCS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "vonmisesvariate", "paretovariate",
    "weibullvariate", "lognormvariate", "getrandbits", "seed", "randbytes",
}

#: Calls inside a set-iteration body that make its order observable.
_EFFECT_CALLS = {
    "record", "incr", "observe", "send", "uplink", "downlink", "schedule",
    "push", "notify", "fail", "_wired_send", "_downlink",
    "proxy_wired_send", "_local_deliver", "write",
}

def _exempt(src: SourceFile) -> bool:
    """Live-backend files run on wall-clock sockets — no sim-determinism
    contract to enforce (see the module docstring's scope note)."""
    return src.rel.startswith("live/")


def _dotted(node: ast.expr) -> Optional[Tuple[str, ...]]:
    """``a.b.c`` as a tuple of names, or None for anything fancier."""
    parts: List[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return tuple(reversed(parts))
    return None


def rule_wallclock(tree: SourceTree) -> List[Finding]:
    """DET001: wall-clock access in simulator code."""
    findings: List[Finding] = []
    for src in tree:
        if _exempt(src):
            continue
        for node in src.nodes(ast.Call):
            target: Optional[Tuple[str, str]] = None
            dotted = _dotted(node.func)
            if dotted is not None and len(dotted) >= 2:
                head = src.modules.get(dotted[0], dotted[0]).split(".")[-1]
                target = (dotted[-2] if len(dotted) > 2 else head, dotted[-1])
            elif isinstance(node.func, ast.Name):
                module, name = src.names.get(node.func.id, (None, ""))
                if module is not None:
                    target = (module.split(".")[-1], name)
            if target in _WALLCLOCK_CALLS:
                findings.append(src.finding(
                    "DET001", node.lineno,
                    f"wall-clock call {'.'.join(target)}() in simulator code",
                    "use sim.now for simulated time, or the CLI timing shim "
                    "repro.experiments._timing.wall_clock for progress "
                    "reporting"))
    return findings


def rule_unseeded_random(tree: SourceTree) -> List[Finding]:
    """DET002: process-global or unseeded randomness."""
    findings: List[Finding] = []
    for src in tree:
        if _exempt(src):
            continue
        random_aliases = {alias for alias, mod in src.modules.items()
                          if mod == "random"}
        for node in src.nodes(ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in random_aliases):
                attr = node.func.attr
                if attr in _RANDOM_MODULE_FUNCS:
                    findings.append(src.finding(
                        "DET002", node.lineno,
                        f"process-global random.{attr}() — draws depend on "
                        f"whatever ran before",
                        "draw from a named RngStreams substream "
                        "(repro.sim.rng) instead"))
                elif attr == "Random" and not node.args and not node.keywords:
                    findings.append(src.finding(
                        "DET002", node.lineno,
                        "random.Random() with no seed — seeded from wall "
                        "clock",
                        "pass an explicit seed or use RngStreams"))
            elif isinstance(node.func, ast.Name):
                origin = src.names.get(node.func.id)
                if origin == ("random", "Random") and not node.args \
                        and not node.keywords:
                    findings.append(src.finding(
                        "DET002", node.lineno,
                        "Random() with no seed — seeded from wall clock",
                        "pass an explicit seed or use RngStreams"))
                elif (origin is not None and origin[0] == "random"
                        and origin[1] in _RANDOM_MODULE_FUNCS):
                    findings.append(src.finding(
                        "DET002", node.lineno,
                        f"process-global random.{origin[1]}() — draws depend "
                        f"on whatever ran before",
                        "draw from a named RngStreams substream "
                        "(repro.sim.rng) instead"))
    return findings


def rule_id_hash(tree: SourceTree) -> List[Finding]:
    """DET003: id()/hash() values leaking into behaviour."""
    findings: List[Finding] = []
    for src in tree:
        if _exempt(src):
            continue
        for node in src.nodes(ast.Call):
            if not (isinstance(node.func, ast.Name)
                    and node.func.id in ("id", "hash")):
                continue
            if node.func.id == "hash" and any(
                    isinstance(up, ast.FunctionDef)
                    and up.name in ("__hash__", "__eq__")
                    for up in src.ancestors(node)):
                continue  # defining __hash__ in terms of hash() is fine
            findings.append(src.finding(
                "DET003", node.lineno,
                f"builtin {node.func.id}() varies per process — its value "
                f"must not reach traces, sort keys, or message fields",
                "key on a stable identifier (node id, request id) instead"))
    return findings


_SET_TYPES = ("Set", "set", "FrozenSet", "frozenset", "MutableSet")


def _is_set_annotation(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split("[")[0].strip() in _SET_TYPES
    return base_name(node) in _SET_TYPES


def _is_set_value(node: Optional[ast.expr]) -> bool:
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
        # dataclasses.field(default_factory=set)
        if node.func.id == "field":
            for kw in node.keywords:
                if (kw.arg == "default_factory"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id in ("set", "frozenset")):
                    return True
    return False


def _is_self_attr(node: ast.expr) -> TypeGuard[ast.Attribute]:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def _set_attrs(src: SourceFile) -> Set[str]:
    """Names bound to a set anywhere in the file: annotated names and
    ``self`` attributes, and ``self`` attributes assigned a set value."""
    found: Set[str] = set()
    for node in src.nodes(ast.AnnAssign):
        target = node.target
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if _is_self_attr(target) else None)
        if name is not None and (_is_set_annotation(node.annotation)
                                 or _is_set_value(node.value)):
            found.add(name)
    for assign in src.nodes(ast.Assign):
        if _is_set_value(assign.value):
            found.update(target.attr for target in assign.targets
                         if _is_self_attr(target))
    return found


def _loop_has_effects(tree: SourceTree, loop: ast.For) -> bool:
    return any(isinstance(node, ast.Call)
               and base_name(node.func) in _EFFECT_CALLS
               for node in tree.walk(loop) if node is not loop)


def rule_set_iteration(tree: SourceTree) -> List[Finding]:
    """DET004: side-effecting iteration over a set."""
    findings: List[Finding] = []
    for src in tree:
        if _exempt(src):
            continue
        # Per-file over-approximation: any attribute name bound to a set
        # anywhere in the file counts.  Locals bound to ``set()`` or set
        # literals are tracked per function, and each loop is judged once,
        # in its innermost function.
        set_attrs = _set_attrs(src)
        for func in src.nodes(ast.FunctionDef):
            body = tree.walk(func)
            local_sets: Set[str] = set()
            for stmt in body:
                if isinstance(stmt, ast.Assign) and (
                        _is_set_value(stmt.value)
                        or isinstance(stmt.value, ast.SetComp)):
                    local_sets.update(target.id for target in stmt.targets
                                      if isinstance(target, ast.Name))
            for loop in body:
                if not isinstance(loop, ast.For) or next(
                        up for up in src.ancestors(loop)
                        if isinstance(up, ast.FunctionDef)) is not func:
                    continue
                iter_expr = loop.iter
                is_set = (
                    isinstance(iter_expr, (ast.Set, ast.SetComp))
                    or (isinstance(iter_expr, ast.Call)
                        and isinstance(iter_expr.func, ast.Name)
                        and iter_expr.func.id in ("set", "frozenset"))
                    or (isinstance(iter_expr, ast.Name)
                        and iter_expr.id in local_sets)
                    or (_is_self_attr(iter_expr)
                        and iter_expr.attr in set_attrs))
                if is_set and _loop_has_effects(tree, loop):
                    findings.append(src.finding(
                        "DET004", loop.lineno,
                        "iteration over a set drives sends/records/"
                        "scheduling — set order varies per process",
                        "iterate sorted(...) or keep an ordered structure"))
    return findings


def rule_global_counter(tree: SourceTree) -> List[Finding]:
    """DET005: module-level itertools.count in simulator code."""
    findings: List[Finding] = []
    for src in tree:
        if _exempt(src):
            continue
        for node in src.tree.body:  # module level only
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            is_count = False
            if isinstance(value, ast.Call):
                dotted = _dotted(value.func)
                if dotted is not None and dotted[-1] == "count" \
                        and (len(dotted) == 1 or dotted[-2] == "itertools"):
                    is_count = True
            if not is_count:
                continue
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    continue
                findings.append(src.finding(
                    "DET005", node.lineno,
                    f"module-level counter '{target.id}' survives across "
                    f"runs in one process, so its ids depend on what ran "
                    f"before",
                    "draw the id from the engine's Ids (sim.ids) or make "
                    "the counter per-instance state"))
    return findings


DETERMINISM_RULES = {
    "DET001": (rule_wallclock, "wall-clock call in simulator code"),
    "DET002": (rule_unseeded_random, "process-global/unseeded randomness"),
    "DET003": (rule_id_hash, "id()/hash() leaking into behaviour"),
    "DET004": (rule_set_iteration, "side-effecting iteration over a set"),
    "DET005": (rule_global_counter, "module-level counter in simulator code"),
}


def run_determinism_rules(tree: SourceTree,
                          selected: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    for rule_id, (func, _doc) in DETERMINISM_RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        findings.extend(func(tree))
    return findings
