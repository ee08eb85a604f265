"""The one program model every rule family reads.

A run parses every ``*.py`` file under one root directory into a
:class:`SourceTree`.  Each :class:`SourceFile` is walked once at parse
time, which yields its node-by-type index (in ``ast.walk`` order), its
parent map and its import tables; the tree adds memoised subtree walks.
The rule passes (:mod:`.protocol_rules`, :mod:`.determinism_rules`,
:mod:`.ownership`) only read this model.  Findings are plain values:
rule id, file, line, message, fix hint — everything the reporter and
the baseline ratchet need.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Deque, Dict, Iterator, List, Optional, Tuple, Type,
                    TypeVar, cast)

_N = TypeVar("_N", bound=ast.AST)

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s-]+)\]")


def _comment_suppressions(rel: str, text: str) -> List["Suppression"]:
    """Suppressions from real ``#`` comments only (tokenized, so the
    syntax can be *mentioned* in docstrings without tripping SUP001)."""
    found: List[Suppression] = []
    if _ALLOW_RE.search(text) is None:
        return found  # no comment can match either: skip tokenizing
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(tok.string)
            if match is not None:
                rules = tuple(r.strip() for r in match.group(1).split(",")
                              if r.strip())
                found.append(Suppression(rel, tok.start[0], rules))
    except tokenize.TokenError:
        pass
    return found


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a rule pass."""

    rule: str
    path: str  # root-relative, posix separators
    line: int
    message: str
    hint: str = ""
    context: str = ""  # stripped source line, for line-stable fingerprints

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.hint:
            text += f"  (fix: {self.hint})"
        return text

    def fingerprint(self) -> str:
        """Line-number-free identity used by the baseline ratchet."""
        return f"{self.rule}|{self.path}|{self.context}"


@dataclass
class Suppression:
    """One ``# repro: allow[RULE,...]`` comment."""

    path: str
    line: int
    rules: Tuple[str, ...]
    used: bool = False


def base_name(node: Optional[ast.AST]) -> Optional[str]:
    """The last name of ``a`` or ``a.b.c``, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class SourceFile:
    """One parsed source file: its AST, its suppression comments, and
    the facts one walk of the AST gives."""

    path: Path
    rel: str
    text: str
    lines: List[str]
    tree: ast.Module
    suppressions: List[Suppression] = field(default_factory=list)
    #: Every node in ``ast.walk`` order.
    walked: List[ast.AST] = field(default_factory=list)
    #: Node type -> the nodes of exactly that type, in ``ast.walk`` order.
    by_type: Dict[Type[ast.AST], List[ast.AST]] = field(default_factory=dict)
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    #: ``import a.b as m``: local module alias -> module name.
    modules: Dict[str, str] = field(default_factory=dict)
    #: ``from m import n as k``: local name -> (module, original name);
    #: the module is None for ``from . import n``.
    names: Dict[str, Tuple[Optional[str], str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(root).as_posix()
        src = cls(path=path, rel=rel, text=text, lines=text.splitlines(),
                  tree=ast.parse(text, filename=str(path)),
                  suppressions=_comment_suppressions(rel, text))
        todo: Deque[ast.AST] = deque([src.tree])  # ast.walk's order
        while todo:
            node = todo.popleft()
            src.walked.append(node)
            src.by_type.setdefault(type(node), []).append(node)
            for child in ast.iter_child_nodes(node):
                src.parents[child] = node
                todo.append(child)
        for imp in src.nodes(ast.Import):
            for alias in imp.names:
                src.modules[alias.asname or alias.name] = alias.name
        for imp in src.nodes(ast.ImportFrom):
            for alias in imp.names:
                src.names[alias.asname or alias.name] = (imp.module,
                                                         alias.name)
        return src

    def nodes(self, node_type: Type[_N]) -> List[_N]:
        """The nodes of exactly this type, in ``ast.walk`` order."""
        return cast(List[_N], self.by_type.get(node_type, []))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """*node*, its parent, and so on up to the module."""
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            yield cursor
            cursor = self.parents.get(cursor)

    def original_name(self, name: str) -> str:
        """The imported name a local alias stands for, else *name*
        (``from .message import Message as _Message``)."""
        origin = self.names.get(name)
        return origin[1] if origin is not None else name

    def context_of(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, line: int, message: str,
                hint: str = "") -> Finding:
        return Finding(rule=rule, path=self.rel, line=line, message=message,
                       hint=hint, context=self.context_of(line))


@dataclass
class SourceTree:
    """Every parseable python file under one root directory, plus the
    subtree walks the rules share, each built once on first use."""

    root: Path
    files: List[SourceFile]
    unparseable: List[Tuple[str, str]] = field(default_factory=list)
    _walks: Dict[int, List[ast.AST]] = field(default_factory=dict,
                                             repr=False)

    def walk(self, node: ast.AST) -> List[ast.AST]:
        """``list(ast.walk(node))`` for a subtree, computed once."""
        # In-process memo key only; the value never reaches output.
        key = id(node)  # repro: allow[DET003]
        walked = self._walks.get(key)
        if walked is None:
            walked = self._walks[key] = list(ast.walk(node))
        return walked

    @classmethod
    def load(cls, root: Path) -> "SourceTree":
        root = root.resolve()
        files: List[SourceFile] = []
        unparseable: List[Tuple[str, str]] = []
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            try:
                files.append(SourceFile.parse(path, root))
            except (SyntaxError, UnicodeDecodeError) as exc:
                unparseable.append((path.relative_to(root).as_posix(),
                                    str(exc)))
        return cls(root=root, files=files, unparseable=unparseable)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)

    def by_rel(self) -> Dict[str, SourceFile]:
        return {f.rel: f for f in self.files}
