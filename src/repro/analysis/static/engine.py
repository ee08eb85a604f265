"""Rule registry and the one-call entry point.

``run_analysis(root)`` loads the tree and runs the stream-ownership pass
(SHD004).  A file that does not parse is a PARSE finding, so it fails
the run instead of silently escaping the pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from .model import Finding, SourceTree
from .ownership import rule_stream_ownership

RULES: Dict[str, str] = {
    "SHD004": "RNG stream drawn by a non-owner",
    "PARSE": "source file does not parse",
}


@dataclass
class AnalysisResult:
    """Everything one analyzer run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0


def run_analysis(root: Path) -> AnalysisResult:
    """Run the pass over the tree rooted at *root*."""
    tree = SourceTree.load(root)
    findings = rule_stream_ownership(tree)
    findings.extend(Finding(rule="PARSE", path=rel, line=1,
                            message=f"file does not parse: {error}",
                            context="<unparseable>")
                    for rel, error in tree.unparseable)
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return AnalysisResult(findings=findings, files_scanned=len(tree.files))
