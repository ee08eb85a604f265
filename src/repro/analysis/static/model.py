"""The program model the ownership pass reads.

A run parses every ``*.py`` file under one root directory into a
:class:`SourceTree`.  Each :class:`SourceFile` is walked once at parse
time into its node-by-type index (in ``ast.walk`` order), which
:mod:`.ownership` reads.  Findings are plain values: rule id, file,
line, message, fix hint — everything the reporter needs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Type, TypeVar, cast

_N = TypeVar("_N", bound=ast.AST)


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
        """Line-number-free identity (SARIF ``partialFingerprints``)."""
        return f"{self.rule}|{self.path}|{self.context}"


@dataclass
class SourceFile:
    """One parsed source file: its AST and its node-by-type index."""

    rel: str
    lines: List[str]
    tree: ast.Module
    #: Node type -> the nodes of exactly that type, in ``ast.walk`` order.
    by_type: Dict[Type[ast.AST], List[ast.AST]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        src = cls(rel=path.relative_to(root).as_posix(),
                  lines=text.splitlines(),
                  tree=ast.parse(text, filename=str(path)))
        for node in ast.walk(src.tree):
            src.by_type.setdefault(type(node), []).append(node)
        return src

    def nodes(self, node_type: Type[_N]) -> List[_N]:
        """The nodes of exactly this type, in ``ast.walk`` order."""
        return cast(List[_N], self.by_type.get(node_type, []))


@dataclass
class SourceTree:
    """Every parseable python file under one root directory, and the
    files that do not parse."""

    files: List[SourceFile]
    unparseable: List[Tuple[str, str]] = field(default_factory=list)

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
        return cls(files=files, unparseable=unparseable)

    def __iter__(self) -> Iterator[SourceFile]:
        return iter(self.files)
