"""Shard-safety passes (rule ids ``SHD00x``).

The sharded-kernel refactor (ROADMAP) splits the world into
shared-nothing regions.  These rules prove — and then keep proving —
that the tree is partitionable: every cross-component interaction flows
through the declared channels, and no component touches state another
component owns.  The ownership spec lives in :mod:`.ownership`; the type
inference and call graph in :mod:`.dataflow`.

* SHD001 — cross-component attribute *writes*: assigning through any
  expression typed as a boundary class other than ``self`` mutates state
  the writer does not own.  Harness files (composition roots) are
  exempt; everything else, channels included, must go through the
  owner's methods.
* SHD002 — retained foreign-component references: a boundary-class
  object stored into ``self`` state, a container, a constructor, or a
  message would dangle across a shard boundary.  Sanctioned co-locations
  (a proxy's hosting MSS, a client's own MH — ``ownership.ALLOWED_REFS``
  / ``HOSTED_BY``) are the explicit exceptions.  Channels own their
  endpoint registries and are exempt from the retention check (they are
  the boundary), but not from message-capture.
* SHD003 — mutable module-level containers reachable from handler code:
  generalizes DET005 beyond counters.  A module dict/list/set mutated by
  any function reachable (attribute-aware call graph) from component or
  channel methods is process-global state that cannot be sharded.
* SHD004 — RNG-stream ownership: deriving a named substream another
  role owns (``rng.stream("faults.wired")`` outside the channel layer)
  couples shards through generator state.  Undeclared names are flagged
  too: new streams must be registered in ``ownership.STREAM_OWNERS``.
* SHD005 — foreign-``Simulator``/clock access: reaching ``other.sim``
  through a boundary-typed expression schedules onto (or reads ``now``
  from) an event loop the component does not belong to.
* SHD006 — mutable foreign state captured in scheduled callbacks:
  escape analysis over ``sim.schedule``/``schedule_at`` arguments,
  bound-method callbacks, and closure captures.  A live component object
  baked into a deferred event pins that object to this region's event
  loop; schedule ids and re-resolve at delivery time instead.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .dataflow import CallGraph, ClassIndex, GraphKey, TypeEnv, functions
from .model import Finding, SourceFile, SourceTree, base_name
from .ownership import (
    ALLOWED_REFS,
    HOSTED_BY,
    ROLE_CHANNEL,
    ROLE_COMPONENT,
    ROLE_KERNEL,
    classify_path,
    may_draw_stream,
)

#: Container-mutating method names (SHD002 stores / SHD003 mutations).
_STORE_CALLS = {"append", "add", "insert", "setdefault"}
_MUTATOR_CALLS = _STORE_CALLS | {
    "update", "pop", "popitem", "clear", "extend", "remove", "discard",
    "appendleft", "popleft",
}
#: Roles whose code runs inside a shard at simulation time.
_SHARD_ROLES = (ROLE_COMPONENT, ROLE_CHANNEL, ROLE_KERNEL)


def _boundary_of(env: TypeEnv, expr: Optional[ast.expr]) -> Optional[str]:
    """The shard component of *expr*'s inferred type, or None."""
    inferred = env.infer(expr)
    if inferred is None or inferred.container:
        return None
    return env.index.boundary_component(inferred.cls)


def _is_self(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


def _sanctioned_ref(index: ClassIndex, enclosing_class: Optional[str],
                    attr: str) -> bool:
    """Is (this class or an ancestor, attr) a declared co-location?"""
    if enclosing_class is None:
        return False
    for info in index.mro(enclosing_class):
        if (info.name, attr) in ALLOWED_REFS:
            return True
    return (enclosing_class, attr) in ALLOWED_REFS


def _write_targets(node: ast.stmt) -> Iterator[ast.Attribute]:
    """Attribute nodes written to by an assignment-like statement."""
    targets: List[ast.expr] = []
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    elif isinstance(node, ast.Delete):
        targets = list(node.targets)
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Attribute):
                    yield element
        elif isinstance(target, ast.Attribute):
            yield target


def rule_foreign_write(tree: SourceTree) -> List[Finding]:
    """SHD001: attribute write through a boundary-typed expression."""
    findings: List[Finding] = []
    for src in tree:
        if classify_path(src.rel).role not in _SHARD_ROLES:
            continue
        for func, cls, _qual in functions(src):
            env = tree.type_env(func, cls)
            for stmt in tree.walk(func):
                if not isinstance(stmt, (ast.Assign, ast.AugAssign,
                                         ast.AnnAssign, ast.Delete)):
                    continue
                for target in _write_targets(stmt):
                    receiver = target.value
                    if _is_self(receiver):
                        continue
                    component = _boundary_of(env, receiver)
                    if component is None:
                        continue
                    findings.append(src.finding(
                        "SHD001", stmt.lineno,
                        f"write to {component}-owned attribute "
                        f"'.{target.attr}' from outside the owner — "
                        f"cross-shard state mutation",
                        "add a method on the owner (or a constructor "
                        "argument) and call it instead"))
    return findings


def _constructed_class(index: ClassIndex, call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Name) and call.func.id[:1].isupper():
        name = call.func.id
        if name in index.classes or index.boundary_component(name):
            return name
    return None


def _is_message_class(index: ClassIndex, name: str) -> bool:
    for info in index.mro(name):
        if "Message" in info.bases or info.name == "Message":
            return True
    return False


def rule_foreign_retention(tree: SourceTree) -> List[Finding]:
    """SHD002: boundary-class objects retained across a shard boundary."""
    index = tree.class_index
    findings: List[Finding] = []
    for src in tree:
        classification = classify_path(src.rel)
        if classification.role not in _SHARD_ROLES:
            continue
        check_retention = classification.role == ROLE_COMPONENT
        for func, cls, _qual in functions(src):
            env = tree.type_env(func, cls)
            for node in tree.walk(func):
                if check_retention and isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = _retention_slot(target)
                        if attr is None:
                            continue
                        component = _boundary_of(env, node.value)
                        if component is None or _is_self(node.value):
                            continue
                        if _sanctioned_ref(index, cls, attr):
                            continue
                        findings.append(src.finding(
                            "SHD002", node.lineno,
                            f"retains a {component} object in "
                            f"'self.{attr}' — the alias dangles across a "
                            f"shard boundary",
                            "store the node/proxy id and resolve through "
                            "a channel, or declare the co-location in "
                            "ownership.ALLOWED_REFS"))
                elif check_retention and isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _STORE_CALLS:
                    slot = _retention_slot(node.func.value)
                    if slot is None:
                        continue
                    for arg in node.args:
                        component = _boundary_of(env, arg)
                        if component is None or _is_self(arg):
                            continue
                        if _sanctioned_ref(index, cls, slot):
                            continue
                        findings.append(src.finding(
                            "SHD002", node.lineno,
                            f"stores a {component} object into "
                            f"'self.{slot}' — the alias dangles across a "
                            f"shard boundary",
                            "store an id instead, or declare the "
                            "co-location in ownership.ALLOWED_REFS"))
                elif isinstance(node, ast.Call):
                    constructed = _constructed_class(index, node)
                    if constructed is None:
                        continue
                    is_message = _is_message_class(index, constructed)
                    target_component = index.boundary_component(constructed)
                    if not is_message and target_component is None:
                        continue
                    own_component = None
                    if cls is not None:
                        own_component = index.boundary_component(cls)
                    if own_component is None:
                        own_component = classification.component
                    values = list(node.args) + [kw.value for kw in node.keywords]
                    for value in values:
                        component = _boundary_of(env, value)
                        if component is None:
                            continue
                        if is_message:
                            findings.append(src.finding(
                                "SHD002", node.lineno,
                                f"{constructed} carries a live {component} "
                                f"object — messages crossing the wire must "
                                f"hold ids and values only",
                                "send the node id / proxy ref and resolve "
                                "on the receiving side"))
                            continue
                        if HOSTED_BY.get(constructed) == component \
                                or HOSTED_BY.get(constructed) == own_component:
                            continue
                        findings.append(src.finding(
                            "SHD002", node.lineno,
                            f"passes a {component} object into "
                            f"{constructed}() — a captured alias that "
                            f"dangles across a shard boundary",
                            "pass ids/data, or declare the hosting "
                            "relation in ownership.HOSTED_BY"))
    return findings


def _retention_slot(target: ast.expr) -> Optional[str]:
    """The ``self`` attribute a store goes into, unwrapping ``self.a[k]``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Attribute) and _is_self(target.value):
        return target.attr
    return None


def _module_containers(src: SourceFile) -> Dict[str, int]:
    """Module-level names bound to mutable container literals/ctors."""
    containers: Dict[str, int] = {}
    for node in src.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        is_container = isinstance(value, (ast.Dict, ast.List, ast.Set))
        if isinstance(value, ast.Call):
            if base_name(value.func) in ("dict", "list", "set", "defaultdict", "deque",
                        "OrderedDict", "Counter"):
                is_container = True
        if not is_container:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                containers[target.id] = node.lineno
    return containers


def _mutations_of(tree: SourceTree, func: ast.FunctionDef,
                  names: Set[str]) -> Set[str]:
    """Which module-level container names *func* mutates."""
    mutated: Set[str] = set()
    for node in tree.walk(func):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in names:
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id in names:
                    mutated.add(target.value.id)
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_CALLS \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in names:
            mutated.add(node.func.value.id)
    return mutated


def rule_module_state(tree: SourceTree) -> List[Finding]:
    """SHD003: module-level mutable containers mutated from handler code."""
    reachable: Optional[Set[GraphKey]] = None
    findings: List[Finding] = []
    for src in tree:
        if classify_path(src.rel).role not in _SHARD_ROLES:
            continue
        containers = _module_containers(src)
        if not containers:
            continue
        names = set(containers)
        if reachable is None:
            graph = CallGraph(tree)
            reachable = graph.reachable(graph.handler_roots())
        flagged: Dict[str, Tuple[int, str]] = {}
        for func, _cls, qual in functions(src):
            if (src.rel, qual) not in reachable:
                continue
            for name in _mutations_of(tree, func, names):
                flagged.setdefault(name, (containers[name], qual))
        for name, (line, qual) in sorted(flagged.items()):
            findings.append(src.finding(
                "SHD003", line,
                f"module-level container '{name}' is mutated by handler-"
                f"reachable code ({qual}) — process-global state cannot "
                f"be sharded",
                "move it onto the owning component instance (or the "
                "world/instruments bundle)"))
    return findings


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
            findings.append(src.finding(
                "SHD004", node.lineno,
                f"derives RNG stream '{name}' which {owner} does not own "
                f"— foreign draws couple shards through generator state",
                "take the stream as a constructor argument from the "
                "assembler, or register ownership in "
                "ownership.STREAM_OWNERS"))
    return findings


def rule_foreign_simulator(tree: SourceTree) -> List[Finding]:
    """SHD005: touching a simulator through a foreign component."""
    index = tree.class_index
    findings: List[Finding] = []
    for src in tree:
        if classify_path(src.rel).role not in (ROLE_COMPONENT, ROLE_CHANNEL):
            continue
        for func, cls, _qual in functions(src):
            env = tree.type_env(func, cls)
            for node in tree.walk(func):
                if not (isinstance(node, ast.Attribute)
                        and node.attr == "sim"):
                    continue
                receiver = node.value
                if _is_self(receiver):
                    continue
                component = _boundary_of(env, receiver)
                if component is None:
                    continue
                if isinstance(receiver, ast.Attribute) \
                        and _is_self(receiver.value) \
                        and _sanctioned_ref(index, cls, receiver.attr):
                    continue
                findings.append(src.finding(
                    "SHD005", node.lineno,
                    f"reaches a {component} component's simulator — "
                    f"scheduling onto (or reading 'now' from) a foreign "
                    f"region's event loop",
                    "use this component's own sim handle; cross-region "
                    "work must arrive as a channel message"))
    return findings


def _schedule_call(env: TypeEnv, node: ast.Call) -> bool:
    if not (isinstance(node.func, ast.Attribute)
            and node.func.attr in ("schedule", "schedule_at")):
        return False
    receiver = node.func.value
    if isinstance(receiver, ast.Attribute) and receiver.attr == "sim":
        return True
    if isinstance(receiver, ast.Name) and receiver.id == "sim":
        return True
    inferred = env.infer(receiver)
    return inferred is not None and inferred.cls == "Simulator"


def _lambda_captures(tree: SourceTree, env: TypeEnv,
                     node: ast.Lambda) -> Set[str]:
    params = {arg.arg for arg in (*node.args.posonlyargs, *node.args.args,
                                  *node.args.kwonlyargs)}
    captured: Set[str] = set()
    for child in tree.walk(node.body):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load) \
                and child.id not in params and child.id in env.vars:
            captured.add(child.id)
    return captured


def rule_scheduled_capture(tree: SourceTree) -> List[Finding]:
    """SHD006: component objects captured in scheduled callbacks."""
    findings: List[Finding] = []
    for src in tree:
        if classify_path(src.rel).role not in _SHARD_ROLES:
            continue
        for func, cls, _qual in functions(src):
            env = tree.type_env(func, cls)
            nested = {n.name: n for n in tree.walk(func)
                      if isinstance(n, ast.FunctionDef) and n is not func}
            for node in tree.walk(func):
                if not (isinstance(node, ast.Call)
                        and _schedule_call(env, node)):
                    continue
                arguments = list(node.args) + [
                    kw.value for kw in node.keywords
                    if kw.arg not in ("label", None)]
                for arg in arguments:
                    findings.extend(_capture_findings(
                        tree, env, src, node.lineno, arg, nested))
    return findings


def _is_bound_method(env: TypeEnv, arg: ast.Attribute) -> bool:
    receiver = env.infer(arg.value)
    if receiver is None or receiver.container:
        return False
    defining = env.index.defining_class(receiver.cls, arg.attr)
    if defining is None:
        return False
    return not any(base_name(decorator) in ("property", "cached_property")
                   for decorator in defining.methods[arg.attr].decorator_list)


def _capture_findings(tree: SourceTree, env: TypeEnv, src: SourceFile,
                      line: int, arg: ast.expr,
                      nested: Dict[str, ast.FunctionDef]) -> List[Finding]:
    found: List[Finding] = []
    if isinstance(arg, ast.Lambda):
        for name in sorted(_lambda_captures(tree, env, arg)):
            if name == "self":
                continue
            component = env.index.boundary_component(env.vars[name].cls) \
                if not env.vars[name].container else None
            if component is not None:
                found.append(src.finding(
                    "SHD006", line,
                    f"closure scheduled on the event loop captures "
                    f"{component} object '{name}' — the alias pins it "
                    f"past the shard boundary",
                    "capture the id and re-resolve at fire time"))
        return found
    if isinstance(arg, ast.Name) and arg.id in nested:
        inner = nested[arg.id]
        bound = {a.arg for a in (*inner.args.posonlyargs, *inner.args.args,
                                 *inner.args.kwonlyargs)}
        for child in tree.walk(inner):
            if isinstance(child, ast.Name) \
                    and isinstance(child.ctx, ast.Load) \
                    and child.id not in bound and child.id != "self" \
                    and child.id in env.vars:
                inferred = env.vars[child.id]
                component = None if inferred.container \
                    else env.index.boundary_component(inferred.cls)
                if component is not None:
                    found.append(src.finding(
                        "SHD006", line,
                        f"scheduled function '{arg.id}' closes over "
                        f"{component} object '{child.id}' — the alias "
                        f"pins it past the shard boundary",
                        "capture the id and re-resolve at fire time"))
        return found
    if isinstance(arg, ast.Attribute) and not _is_self(arg.value):
        component = _boundary_of(env, arg.value)
        if component is not None and _is_bound_method(env, arg):
            # A bound method retains its instance; a plain data attribute
            # is evaluated at schedule time and captures nothing.
            found.append(src.finding(
                "SHD006", line,
                f"schedules bound method '.{arg.attr}' of a {component} "
                f"object — the callback pins the object past the shard "
                f"boundary",
                "schedule a method of self with the target's id as "
                "argument"))
            return found
    if not _is_self(arg):
        component = _boundary_of(env, arg)
        if component is not None:
            label = ast.unparse(arg) if hasattr(ast, "unparse") else "object"
            found.append(src.finding(
                "SHD006", line,
                f"schedules a callback with live {component} object "
                f"'{label}' as argument — the event payload pins it past "
                f"the shard boundary",
                "pass the id (cell/node/proxy id) and resolve at "
                "delivery time"))
    return found


SHARD_RULES = {
    "SHD001": (rule_foreign_write,
               "cross-component attribute write outside the owner"),
    "SHD002": (rule_foreign_retention,
               "retained foreign-component reference"),
    "SHD003": (rule_module_state,
               "module-level mutable container reachable from handlers"),
    "SHD004": (rule_stream_ownership,
               "RNG stream drawn by a non-owner"),
    "SHD005": (rule_foreign_simulator,
               "foreign Simulator/clock access"),
    "SHD006": (rule_scheduled_capture,
               "component object captured in a scheduled callback"),
}


def run_shard_rules(tree: SourceTree,
                    selected: Optional[Set[str]] = None) -> List[Finding]:
    findings: List[Finding] = []
    for rule_id, (func, _doc) in SHARD_RULES.items():
        if selected is not None and rule_id not in selected:
            continue
        findings.extend(func(tree))
    return findings


__all__ = ["SHARD_RULES", "run_shard_rules"]
