"""Dataflow engine: class index, type inference, attribute-aware calls.

The protocol passes resolve calls by bare name, which is enough to
chase ack obligations but far too coarse to reason about *which object*
a statement touches.  The shard-safety rules (:mod:`.shard_rules`) need
exactly that, so this module adds three capabilities to the program
model (:class:`~repro.analysis.static.model.SourceTree`, which builds
the class index and one type environment per function, once):

* a **class index** over the whole tree: for every class, the attribute
  types and method return types recoverable from annotations (constructor
  parameter annotations flowing into ``self.x = param`` assignments,
  ``self.x: T`` annotations, class-body fields) and the base-class chain;
* **intra-procedural type environments**: per function, the inferred
  class of every local name — parameters from annotations, ``self`` from
  the enclosing class, locals through assignments from typed attributes,
  known constructors, typed method returns, container element access
  (``d[k]``, ``d.get(k)``, ``for x in xs``) — iterated to a bounded
  fixpoint so aliases of aliases resolve;
* an **attribute-aware call graph**: edges follow ``self._helper()``
  through the MRO and ``self.attr.method()`` through the inferred type
  of ``self.attr``, so reachability queries (is this mutation reachable
  from handler code?) see through one level of composition instead of
  matching names globally.

Everything is deliberately an over-approximation built for linting:
unknown expressions infer to ``None`` and rules stay silent on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .model import SourceFile, SourceTree, base_name
from .ownership import BOUNDARY_CLASSES, classify_path

#: Dict-like accessors that yield one element of a container.
_ELEMENT_CALLS = {"get", "pop", "setdefault"}
#: Calls that preserve a container's element type.
_CONTAINER_PRESERVING = {"values", "copy", "list", "sorted", "reversed",
                         "tuple", "set", "frozenset"}
#: Container generics whose *last* parameter is the element type.
_VALUE_CONTAINERS = {"Dict", "dict", "Mapping", "MutableMapping",
                     "DefaultDict", "defaultdict", "OrderedDict"}
#: Container generics whose *first* parameter is the element type.
_ELEMENT_CONTAINERS = {"List", "list", "Set", "set", "FrozenSet",
                       "frozenset", "Tuple", "tuple", "Sequence",
                       "Iterable", "Iterator", "Deque", "deque"}


@dataclass(frozen=True)
class Inferred:
    """An inferred static type: a class name, possibly as a container's
    element type (``container=True`` means *collection of* ``cls``)."""

    cls: str
    container: bool = False

    def element(self) -> "Inferred":
        return Inferred(self.cls)


def parse_annotation(node: Optional[ast.expr]) -> Optional[Inferred]:
    """Best-effort class name from an annotation expression."""
    name = base_name(node)
    if name is not None:
        return Inferred(name)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            return parse_annotation(ast.parse(node.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):
        name = base_name(node.value)
        args: List[ast.expr] = []
        if isinstance(node.slice, ast.Tuple):
            args = list(node.slice.elts)
        else:
            args = [node.slice]
        if name == "Optional" and args:
            return parse_annotation(args[0])
        if name == "Union":
            for arg in args:
                if isinstance(arg, ast.Constant) and arg.value is None:
                    continue
                inner = parse_annotation(arg)
                if inner is not None:
                    return inner
            return None
        if name in _VALUE_CONTAINERS and len(args) >= 2:
            inner = parse_annotation(args[-1])
            if inner is not None and not inner.container:
                return Inferred(inner.cls, container=True)
            return None
        if name in _ELEMENT_CONTAINERS and args:
            inner = parse_annotation(args[0])
            if inner is not None and not inner.container:
                return Inferred(inner.cls, container=True)
            return None
    return None


@dataclass
class ClassInfo:
    """Statically recoverable facts about one class definition."""

    name: str
    rel: str
    node: ast.ClassDef
    bases: Tuple[str, ...] = ()
    attr_types: Dict[str, Inferred] = field(default_factory=dict)
    method_returns: Dict[str, Optional[Inferred]] = field(default_factory=dict)
    methods: Dict[str, ast.FunctionDef] = field(default_factory=dict)


def _collect_class(tree: SourceTree, node: ast.ClassDef,
                   rel: str) -> ClassInfo:
    bases = tuple(name for name in map(base_name, node.bases)
                  if name is not None)
    info = ClassInfo(name=node.name, rel=rel, node=node, bases=bases)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            inferred = parse_annotation(stmt.annotation)
            if inferred is not None:
                info.attr_types.setdefault(stmt.target.id, inferred)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if isinstance(stmt, ast.FunctionDef):
                info.methods[stmt.name] = stmt
            info.method_returns[stmt.name] = parse_annotation(stmt.returns)
    for method in info.methods.values():
        params: Dict[str, Inferred] = {}
        for arg in (*method.args.posonlyargs, *method.args.args,
                    *method.args.kwonlyargs):
            inferred = parse_annotation(arg.annotation)
            if inferred is not None:
                params[arg.arg] = inferred
        for stmt in tree.walk(method):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value, annotation = stmt.target, stmt.value, stmt.annotation
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                continue
            inferred = parse_annotation(annotation)
            if inferred is None and isinstance(value, ast.Name):
                inferred = params.get(value.id)
            if inferred is None and isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Name):
                # self.x = SomeClass(...)
                if value.func.id[:1].isupper():
                    inferred = Inferred(value.func.id)
            if inferred is not None:
                info.attr_types.setdefault(target.attr, inferred)
    return info


class ClassIndex:
    """All classes in a tree, with MRO-aware attribute/return lookup."""

    def __init__(self, tree: SourceTree) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        for src in tree:
            for node in src.nodes(ast.ClassDef):
                self.classes[node.name] = _collect_class(tree, node, src.rel)

    def mro(self, name: str) -> List[ClassInfo]:
        """The known ancestor chain (self first), cycle-safe."""
        chain: List[ClassInfo] = []
        seen: Set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            chain.append(info)
            frontier.extend(info.bases)
        return chain

    def attr_type(self, cls: str, attr: str) -> Optional[Inferred]:
        for info in self.mro(cls):
            if attr in info.attr_types:
                return info.attr_types[attr]
        return None

    def method_return(self, cls: str, method: str) -> Optional[Inferred]:
        for info in self.mro(cls):
            if method in info.method_returns:
                return info.method_returns[method]
        return None

    def defining_class(self, cls: str, method: str) -> Optional[ClassInfo]:
        for info in self.mro(cls):
            if method in info.methods:
                return info
        return None

    def boundary_component(self, cls: Optional[str]) -> Optional[str]:
        """The shard component *cls* instances belong to, or None.

        Direct boundary classes (and the Protocols standing in for them)
        resolve through the ownership spec; anything else resolves by
        subclassing a concrete boundary class.
        """
        if cls is None:
            return None
        if cls in BOUNDARY_CLASSES:
            return BOUNDARY_CLASSES[cls]
        for info in self.mro(cls):
            for base in info.bases:
                if base in BOUNDARY_CLASSES:
                    return BOUNDARY_CLASSES[base]
        return None


class TypeEnv:
    """Inferred classes of local names inside one function (built by
    :meth:`SourceTree.type_env`, once per function)."""

    def __init__(self, tree: SourceTree, func: ast.FunctionDef,
                 enclosing_class: Optional[str] = None) -> None:
        self.index = tree.class_index
        self.vars: Dict[str, Inferred] = {}
        if enclosing_class is not None:
            self.vars["self"] = Inferred(enclosing_class)
        for arg in (*func.args.posonlyargs, *func.args.args,
                    *func.args.kwonlyargs):
            inferred = parse_annotation(arg.annotation)
            if inferred is not None:
                self.vars[arg.arg] = inferred
        # Bounded fixpoint over assignments so chains (a = self.d.get(k);
        # b = a) resolve without statement ordering bookkeeping.
        bindings = [node for node in tree.walk(func) if isinstance(
            node, (ast.Assign, ast.AnnAssign, ast.NamedExpr, ast.For,
                   ast.comprehension))]
        for _ in range(3):
            changed = False
            for node in bindings:
                if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    changed |= self._bind(node.targets[0].id,
                                          self.infer(node.value))
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    inferred = parse_annotation(node.annotation)
                    if inferred is None and node.value is not None:
                        inferred = self.infer(node.value)
                    changed |= self._bind(node.target.id, inferred)
                elif isinstance(node, ast.NamedExpr) \
                        and isinstance(node.target, ast.Name):
                    changed |= self._bind(node.target.id,
                                          self.infer(node.value))
                elif isinstance(node, (ast.For, ast.comprehension)):
                    target = node.target
                    iterable = node.iter
                    if isinstance(target, ast.Name):
                        source = self.infer(iterable)
                        if source is not None and source.container:
                            changed |= self._bind(target.id, source.element())
            if not changed:
                break

    def _bind(self, name: str, inferred: Optional[Inferred]) -> bool:
        if inferred is None or self.vars.get(name) == inferred:
            return False
        self.vars[name] = inferred
        return True

    def infer(self, node: Optional[ast.expr]) -> Optional[Inferred]:
        """The inferred type of an expression, or None when unknown."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            return self.vars.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.infer(node.value)
            if base is not None and not base.container:
                return self.index.attr_type(base.cls, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            base = self.infer(node.value)
            if base is not None and base.container:
                return base.element()
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.IfExp):
            return self.infer(node.body) or self.infer(node.orelse)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                inferred = self.infer(value)
                if inferred is not None:
                    return inferred
            return None
        if isinstance(node, ast.NamedExpr):
            return self.infer(node.value)
        if isinstance(node, ast.Await):
            return self.infer(node.value)
        return None

    def _infer_call(self, node: ast.Call) -> Optional[Inferred]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.index.classes or func.id in BOUNDARY_CLASSES:
                return Inferred(func.id)
            if func.id in _CONTAINER_PRESERVING and node.args:
                inner = self.infer(node.args[0])
                if inner is not None and inner.container:
                    return inner
            return None
        if isinstance(func, ast.Attribute):
            base = self.infer(func.value)
            if base is None:
                return None
            if base.container:
                if func.attr in _ELEMENT_CALLS:
                    return base.element()
                if func.attr in _CONTAINER_PRESERVING:
                    return base
                return None
            return self.index.method_return(base.cls, func.attr)
        return None


#: A call-graph node: (file rel path, qualified name).
GraphKey = Tuple[str, str]


def functions(src: SourceFile) -> Iterator[Tuple[ast.FunctionDef,
                                                 Optional[str], str]]:
    """(function node, enclosing class name, qualname) of every
    module-level function and method of a module-level class."""
    for node in src.tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node, None, node.name
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.FunctionDef):
                    yield stmt, node.name, f"{node.name}.{stmt.name}"


class CallGraph:
    """Attribute-aware call graph over a whole tree."""

    def __init__(self, tree: SourceTree) -> None:
        self.tree = tree
        self.index = tree.class_index
        self.edges: Dict[GraphKey, Set[GraphKey]] = {}
        self.nodes: Set[GraphKey] = set()
        for src in tree:
            module_functions = {n.name for n in src.tree.body
                                if isinstance(n, ast.FunctionDef)}
            for func, cls, qual in functions(src):
                self._add_function(src, func, cls, qual, module_functions)

    def _add_function(self, src: SourceFile, func: ast.FunctionDef,
                      cls: Optional[str], qual: str,
                      module_functions: Set[str]) -> None:
        key: GraphKey = (src.rel, qual)
        self.nodes.add(key)
        targets = self.edges.setdefault(key, set())
        env = self.tree.type_env(func, cls)
        for call in self.tree.walk(func):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            if isinstance(callee, ast.Name):
                if callee.id in module_functions:
                    targets.add((src.rel, callee.id))
                continue
            if not isinstance(callee, ast.Attribute):
                continue
            receiver = env.infer(callee.value)
            if receiver is None or receiver.container:
                continue
            defining = self.index.defining_class(receiver.cls, callee.attr)
            if defining is not None:
                targets.add((defining.rel,
                             f"{defining.name}.{callee.attr}"))

    def reachable(self, roots: Iterable[GraphKey]) -> Set[GraphKey]:
        seen: Set[GraphKey] = set()
        frontier = [root for root in roots]
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.edges.get(current, ()))
        return seen

    def handler_roots(self) -> Set[GraphKey]:
        """Methods of classes living in component or channel files: the
        code that runs inside a shard at simulation time."""
        roots: Set[GraphKey] = set()
        for src in self.tree:
            role = classify_path(src.rel).role
            if role not in ("component", "channel"):
                continue
            for node in src.nodes(ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        roots.add((src.rel, f"{node.name}.{stmt.name}"))
        return roots


__all__ = [
    "CallGraph",
    "ClassIndex",
    "ClassInfo",
    "GraphKey",
    "Inferred",
    "TypeEnv",
    "parse_annotation",
]
