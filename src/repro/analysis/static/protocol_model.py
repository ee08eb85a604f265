"""Whole-tree protocol extraction.

Reads every file's node index (:mod:`.model`) and produces a
:class:`ProtocolModel`:

* every :class:`~repro.net.message.Message` subclass with its ``kind``
  string and resolved field/method surface (inheritance followed through
  import aliases);
* every *send site* — a constructor call of a message class anywhere in
  the tree (messages in this codebase are only ever constructed to be
  sent or re-sent);
* every *handler site* — dispatch-dict entries (``{JoinMsg: self._on_join}``),
  ``isinstance(msg, XxxMsg)`` tests, handler functions with a
  message-class parameter annotation, and ``x.kind == "..."`` string
  comparisons;
* a name-based call graph (function name -> functions of that name, with
  the message classes each function constructs and the names it
  references), used by the ack-obligation reachability pass.

The call graph is deliberately over-approximate (callbacks passed as
arguments count as calls, methods are resolved by bare name across all
classes): over-approximation can only *satisfy* a protocol obligation it
should not, never invent a violation, which keeps the pass quiet on
correct code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from .model import SourceFile, SourceTree, base_name

#: Fields every message inherits from the Message root.
BASE_MESSAGE_FIELDS = {"msg_id", "src", "dst", "kind"}
#: Methods every message inherits from the Message root.
BASE_MESSAGE_METHODS = {"size_bytes", "describe", "registry"}

ROOT_CLASS = "Message"


@dataclass
class MessageClass:
    """One Message subclass (or the root) as seen by the analyzer."""

    name: str
    rel: str
    line: int
    bases: Tuple[str, ...]
    kind: Optional[str] = None  # own ``kind`` ClassVar, if declared
    own_fields: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)
    fields: Set[str] = field(default_factory=set)  # resolved, incl. bases

    @property
    def is_concrete(self) -> bool:
        """Concrete protocol vocabulary: declares its own kind string."""
        return self.kind is not None and self.name != ROOT_CLASS

    def allowed_attrs(self) -> Set[str]:
        return self.fields | self.methods | BASE_MESSAGE_METHODS | {"kind"}


@dataclass(frozen=True)
class SendSite:
    cls: str
    rel: str
    line: int


@dataclass
class HandlerSite:
    """One place that dispatches on a message class (or kind string)."""

    cls: Optional[str]  # message class name, when class-based
    kind: Optional[str]  # kind string, when string-based
    rel: str
    line: int
    via: str  # "dict" | "isinstance" | "annotation" | "kind-compare"
    funcs: Set[str] = field(default_factory=set)  # handler function names


@dataclass
class FunctionInfo:
    """One function/method definition with its protocol-relevant facts."""

    name: str
    rel: str
    line: int
    node: ast.AST
    refs: Set[str] = field(default_factory=set)  # called/referenced names
    constructs: Set[str] = field(default_factory=set)  # message classes


@dataclass
class ProtocolModel:
    classes: Dict[str, MessageClass] = field(default_factory=dict)
    sends: List[SendSite] = field(default_factory=list)
    handlers: List[HandlerSite] = field(default_factory=list)
    functions: Dict[str, List[FunctionInfo]] = field(default_factory=dict)

    # -- queries -----------------------------------------------------------

    def kind_of(self, cls_name: str) -> Optional[str]:
        cls = self.classes.get(cls_name)
        return cls.kind if cls is not None else None

    def classes_of_kind(self, kind: str) -> List[MessageClass]:
        return [c for c in self.classes.values() if c.kind == kind]

    def sends_of(self, cls_name: str) -> List[SendSite]:
        return [s for s in self.sends if s.cls == cls_name]

    def handler_sites_of(self, cls_name: str) -> List[HandlerSite]:
        kind = self.kind_of(cls_name)
        sites = [h for h in self.handlers if h.cls == cls_name]
        if kind is not None:
            sites += [h for h in self.handlers
                      if h.cls is None and h.kind == kind]
        return sites

    def all_refs(self) -> Set[str]:
        """Every function/method name referenced anywhere in the tree."""
        refs: Set[str] = set()
        for infos in self.functions.values():
            for info in infos:
                refs |= info.refs
        return refs

    def reachable_constructs(self, start_funcs: Set[str],
                             max_depth: int = 8) -> Set[str]:
        """Message classes constructed by *start_funcs* or anything they
        (transitively, by name) reference."""
        seen: Set[str] = set()
        frontier = set(start_funcs)
        constructed: Set[str] = set()
        for _ in range(max_depth):
            next_frontier: Set[str] = set()
            for name in frontier:
                if name in seen:
                    continue
                seen.add(name)
                for info in self.functions.get(name, []):
                    constructed |= info.constructs
                    next_frontier |= info.refs
            frontier = next_frontier - seen
            if not frontier:
                break
        return constructed


# --------------------------------------------------------------------------
# extraction
# --------------------------------------------------------------------------

def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Class name out of a parameter annotation (incl. string form)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip("'\"").split(".")[-1]
    return base_name(node)


@dataclass
class _RawClass:
    name: str
    rel: str
    line: int
    bases: Tuple[str, ...]
    kind: Optional[str]
    own_fields: Set[str]
    methods: Set[str]


def _scan_class(node: ast.ClassDef, src: SourceFile) -> _RawClass:
    bases = []
    for base in node.bases:
        name = base_name(base)
        if name is not None:
            bases.append(src.original_name(name))
    kind: Optional[str] = None
    own_fields: Set[str] = set()
    methods: Set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            target = stmt.target.id
            if target == "kind":
                if (isinstance(stmt.value, ast.Constant)
                        and isinstance(stmt.value.value, str)):
                    kind = stmt.value.value
            elif not target.startswith("_"):
                own_fields.add(target)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if target.id == "kind":
                        if (isinstance(stmt.value, ast.Constant)
                                and isinstance(stmt.value.value, str)):
                            kind = stmt.value.value
                    elif not target.id.startswith("_"):
                        own_fields.add(target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods.add(stmt.name)
    return _RawClass(name=node.name, rel=src.rel, line=node.lineno,
                     bases=tuple(bases), kind=kind,
                     own_fields=own_fields, methods=methods)


def _message_closure(raw: Dict[str, _RawClass]) -> Dict[str, MessageClass]:
    """Classes whose base chain reaches the Message root."""
    reaches: Dict[str, bool] = {}

    def _reaches(name: str, trail: Set[str]) -> bool:
        if name == ROOT_CLASS:
            return True
        if name in reaches:
            return reaches[name]
        cls = raw.get(name)
        if cls is None or name in trail:
            return False
        trail.add(name)
        result = any(_reaches(base, trail) for base in cls.bases)
        reaches[name] = result
        return result

    classes: Dict[str, MessageClass] = {}
    for name, cls in raw.items():
        if name == ROOT_CLASS or _reaches(name, set()):
            classes[name] = MessageClass(
                name=name, rel=cls.rel, line=cls.line, bases=cls.bases,
                kind=cls.kind, own_fields=set(cls.own_fields),
                methods=set(cls.methods))

    def _fields(name: str, trail: Set[str]) -> Set[str]:
        cls = classes.get(name)
        if cls is None or name in trail:
            return set()
        trail.add(name)
        resolved = set(cls.own_fields)
        for base in cls.bases:
            resolved |= _fields(base, trail)
        return resolved

    for name, cls in classes.items():
        cls.fields = _fields(name, set()) | BASE_MESSAGE_FIELDS
    return classes


def _scan_function(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                   src: SourceFile, class_names: Set[str]) -> FunctionInfo:
    """The refs and message constructions inside one function body."""
    info = FunctionInfo(name=node.name, rel=src.rel, line=node.lineno,
                        node=node)
    todo: List[ast.AST] = list(node.body)
    while todo:
        child = todo.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are separate functions; skip their bodies here.
            info.refs.add(child.name)
            continue
        if isinstance(child, ast.Call):
            name = base_name(child.func)
            if name is not None:
                resolved = src.original_name(name)
                if resolved in class_names:
                    info.constructs.add(resolved)
                else:
                    info.refs.add(name)
        elif isinstance(child, ast.Attribute) \
                and isinstance(child.ctx, ast.Load):
            info.refs.add(child.attr)
        todo.extend(ast.iter_child_nodes(child))
    return info


def _self_method_refs(body: List[ast.stmt]) -> Set[str]:
    """Names of ``self.<method>`` references inside a statement list."""
    refs: Set[str] = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                refs.add(node.attr)
    return refs


def _isinstance_classes(test: ast.expr, src: SourceFile,
                        class_names: Set[str]) -> List[Tuple[str, int]]:
    """Message classes named by isinstance() calls inside a test expr."""
    found: List[Tuple[str, int]] = []
    for node in ast.walk(test):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            spec = node.args[1]
            names = (list(spec.elts)
                     if isinstance(spec, ast.Tuple) else [spec])
            for name_node in names:
                name = base_name(name_node)
                if name is None:
                    continue
                resolved = src.original_name(name)
                if resolved in class_names:
                    found.append((resolved, node.lineno))
    return found


def _enclosing_function(src: SourceFile, node: ast.AST) -> Set[str]:
    """The name of the innermost function around *node*, as a set."""
    for up in src.ancestors(node):
        if isinstance(up, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return {up.name}
    return set()


def _scan_file(src: SourceFile, class_names: Set[str],
               known_kinds: Set[str], model: ProtocolModel) -> None:
    # Function table (methods resolved by bare name).
    for node in src.walked:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        model.functions.setdefault(node.name, []).append(
            _scan_function(node, src, class_names))
        model.handlers.extend(
            _annotation_handler_sites(node, src, class_names))

    # Send sites, dispatch dicts, isinstance tests, kind comparisons.
    for node in src.walked:
        if isinstance(node, ast.Call):
            name = base_name(node.func)
            if name is not None:
                resolved = src.original_name(name)
                if resolved in class_names:
                    model.sends.append(SendSite(cls=resolved, rel=src.rel,
                                                line=node.lineno))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                key_name = base_name(key)
                if key is None or key_name is None:
                    continue
                resolved = src.original_name(key_name)
                if resolved not in class_names:
                    continue
                value_name = base_name(value)
                model.handlers.append(HandlerSite(
                    cls=resolved, kind=None, rel=src.rel, line=key.lineno,
                    via="dict",
                    funcs={value_name} if value_name is not None else set()))
        elif isinstance(node, ast.If):
            for resolved, lineno in _isinstance_classes(node.test, src,
                                                        class_names):
                model.handlers.append(HandlerSite(
                    cls=resolved, kind=None, rel=src.rel, line=lineno,
                    via="isinstance", funcs=(_self_method_refs(node.body)
                                             | _enclosing_function(src, node))))
        elif isinstance(node, ast.Compare) and len(node.comparators) == 1:
            left, right = node.left, node.comparators[0]
            for attr_side, const_side in ((left, right), (right, left)):
                if (isinstance(attr_side, ast.Attribute)
                        and attr_side.attr == "kind"
                        and isinstance(const_side, ast.Constant)
                        and isinstance(const_side.value, str)
                        and const_side.value in known_kinds):
                    model.handlers.append(HandlerSite(
                        cls=None, kind=const_side.value, rel=src.rel,
                        line=node.lineno, via="kind-compare",
                        funcs=_enclosing_function(src, node)))
                    break


#: Function-name shapes that mark a message-annotated function as a handler.
_HANDLER_NAME_PREFIXES = ("on_", "_on_", "handle", "_handle")


def _annotation_handler_sites(
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef], src: SourceFile,
        class_names: Set[str]) -> List[HandlerSite]:
    if not node.name.startswith(_HANDLER_NAME_PREFIXES):
        return []
    sites: List[HandlerSite] = []
    for arg in list(node.args.args) + list(node.args.kwonlyargs):
        ann = _annotation_name(arg.annotation)
        if ann is None:
            continue
        resolved = src.original_name(ann)
        if resolved in class_names and resolved != ROOT_CLASS:
            sites.append(HandlerSite(
                cls=resolved, kind=None, rel=src.rel, line=node.lineno,
                via="annotation", funcs={node.name}))
    return sites


def build_protocol_model(tree: SourceTree) -> ProtocolModel:
    """Extract the protocol model from a parsed source tree."""
    raw: Dict[str, _RawClass] = {}
    for src in tree:
        for node in src.nodes(ast.ClassDef):
            cls = _scan_class(node, src)
            # First definition wins (duplicate class names across
            # modules are rare and reported by the dup-kind rule).
            raw.setdefault(cls.name, cls)
    model = ProtocolModel(classes=_message_closure(raw))
    class_names = set(model.classes)
    known_kinds = {c.kind for c in model.classes.values()
                   if c.kind is not None}
    for src in tree:
        _scan_file(src, class_names, known_kinds, model)
    return model
