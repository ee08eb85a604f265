"""Rule registry, suppression engine, and the one-call entry point.

``run_analysis(root)`` loads the tree, runs every (selected) pass,
applies ``# repro: allow[RULE]`` suppressions (same line, the comment
line directly above the finding, or the comment line directly above the
head of the enclosing statement — so an allow above a decorator or a
multi-line call still covers it), and reports unused suppressions as
SUP001 findings so the allow-list can never rot.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from .determinism_rules import DETERMINISM_RULES, run_determinism_rules
from .model import Finding, SourceFile, SourceTree, Suppression
from .ownership import OWNERSHIP_RULES, run_ownership_rules
from .protocol_rules import PROTOCOL_RULES, run_protocol_rules

RULES: Dict[str, str] = {
    **{rule_id: doc for rule_id, (_f, doc) in PROTOCOL_RULES.items()},
    **{rule_id: doc for rule_id, (_f, doc) in DETERMINISM_RULES.items()},
    **{rule_id: doc for rule_id, (_f, doc) in OWNERSHIP_RULES.items()},
    "SUP001": "unused # repro: allow[...] suppression",
}


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    root: Path
    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    files_scanned: int = 0


_COMPOUND = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.If,
             ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith,
             ast.Try)


def _statement_heads(src: SourceFile) -> Dict[int, int]:
    """Map each line of a statement *head* to the head's first line.

    The head of a compound statement runs from its first decorator
    through the line before its first body statement (so a multi-line
    signature or condition counts); a simple statement's head is its
    whole span.  Inner statements override enclosing ones, so a finding
    inside a function body resolves to its own statement, not the def.
    """
    heads: Dict[int, int] = {}

    def visit(statements: Sequence[ast.stmt]) -> None:
        for node in statements:
            start = node.lineno
            decorators = getattr(node, "decorator_list", [])
            if decorators:
                start = min(start, min(d.lineno for d in decorators))
            if isinstance(node, _COMPOUND):
                first_body = min((s.lineno for s in node.body),
                                 default=node.lineno + 1)
                end = max(node.lineno, first_body - 1)
            else:
                end = node.end_lineno or node.lineno
            for line in range(start, end + 1):
                heads[line] = start
            for attr in ("body", "orelse", "finalbody"):
                children = getattr(node, attr, None)
                if isinstance(children, list):
                    visit([s for s in children if isinstance(s, ast.stmt)])
            for handler in getattr(node, "handlers", []):
                visit(handler.body)

    visit(src.tree.body)
    return heads


def _suppression_for(finding: Finding,
                     by_file: Dict[str, List[Suppression]],
                     lines_by_file: Dict[str, List[str]],
                     heads_by_file: Dict[str, Dict[int, int]]) -> Optional[Suppression]:
    """A suppression covers a finding on its own line, on the comment
    line directly above, or on the comment line directly above the head
    of the enclosing statement (decorators included)."""
    head = heads_by_file.get(finding.path, {}).get(finding.line, finding.line)
    for sup in by_file.get(finding.path, []):
        if finding.rule not in sup.rules:
            continue
        if sup.line == finding.line:
            return sup
        if sup.line in (finding.line - 1, head - 1):
            lines = lines_by_file.get(finding.path, [])
            if (1 <= sup.line <= len(lines)
                    and lines[sup.line - 1].lstrip().startswith("#")):
                return sup
    return None


def run_analysis(root: Path,
                 selected: Optional[Set[str]] = None) -> AnalysisResult:
    """Run every pass over the tree rooted at *root*."""
    tree = SourceTree.load(root)
    raw: List[Finding] = []
    raw.extend(run_protocol_rules(tree, selected))
    raw.extend(run_determinism_rules(tree, selected))
    raw.extend(run_ownership_rules(tree, selected))
    for rel, error in tree.unparseable:
        raw.append(Finding(rule="SUP001", path=rel, line=1,
                           message=f"file does not parse: {error}",
                           context="<unparseable>"))

    by_file: Dict[str, List[Suppression]] = {}
    lines_by_file: Dict[str, List[str]] = {}
    heads_by_file: Dict[str, Dict[int, int]] = {}
    for src in tree:
        if src.suppressions:
            by_file[src.rel] = src.suppressions
            heads_by_file[src.rel] = _statement_heads(src)
        lines_by_file[src.rel] = src.lines

    result = AnalysisResult(root=tree.root, files_scanned=len(tree.files))
    for finding in raw:
        sup = _suppression_for(finding, by_file, lines_by_file, heads_by_file)
        if sup is not None:
            sup.used = True
            result.suppressed.append(finding)
        else:
            result.findings.append(finding)

    sup_selected = selected is None or "SUP001" in selected
    if sup_selected:
        for src in tree:
            for sup in src.suppressions:
                if not sup.used:
                    result.findings.append(src.finding(
                        "SUP001", sup.line,
                        f"suppression allow[{','.join(sup.rules)}] matches "
                        f"no finding",
                        "delete the stale allow comment"))

    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return result
