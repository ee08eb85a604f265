"""Text, JSON, and SARIF rendering of analyzer results.

All three formats report the same *failing set* — ``comparison.new``
when a baseline comparison ran, every finding otherwise — in the
engine's stable (path, line, rule, message) order, so reruns are
byte-identical and CI can diff artifacts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Optional

from .baseline import BaselineComparison
from .engine import RULES, AnalysisResult
from .model import Finding


def _reported(result: AnalysisResult,
              comparison: Optional[BaselineComparison]) -> List[Finding]:
    return comparison.new if comparison is not None else result.findings


def render_json(result: AnalysisResult,
                comparison: Optional[BaselineComparison] = None) -> str:
    """Machine-readable report (stable key and finding ordering)."""
    reported = _reported(result, comparison)
    payload: Dict[str, Any] = {
        "files_scanned": result.files_scanned,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "message": f.message,
                "hint": f.hint,
                "fingerprint": f.fingerprint(),
            }
            for f in reported
        ],
        "suppressed": len(result.suppressed),
    }
    if comparison is not None:
        payload["baseline"] = {
            "new": len(comparison.new),
            "baselined": len(comparison.baselined),
            "fixed": comparison.fixed,
        }
    return json.dumps(payload, indent=2) + "\n"


def render_sarif(result: AnalysisResult,
                 comparison: Optional[BaselineComparison] = None) -> str:
    """SARIF 2.1.0 document for CI code-scanning annotations."""
    reported = _reported(result, comparison)
    used_rules = sorted({f.rule for f in reported})
    sarif: Dict[str, Any] = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-analyze",
                        "informationUri":
                            "docs/STATIC_ANALYSIS.md",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": RULES.get(rule_id, rule_id),
                                },
                            }
                            for rule_id in used_rules
                        ],
                    },
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "level": "error",
                        "message": {
                            "text": f.message + (f"  (fix: {f.hint})"
                                                 if f.hint else ""),
                        },
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.path},
                                    "region": {"startLine": f.line},
                                },
                            },
                        ],
                        "partialFingerprints": {
                            "repro/v1": f.fingerprint(),
                        },
                    }
                    for f in reported
                ],
            },
        ],
    }
    return json.dumps(sarif, indent=2) + "\n"


def render_result(result: AnalysisResult,
                  comparison: Optional[BaselineComparison] = None) -> str:
    """Full human-readable report: findings, per-rule tally, summary."""
    lines: List[str] = []
    reported = comparison.new if comparison is not None else result.findings
    if reported:
        lines.extend(f.render() for f in reported)
        lines.append("")
        tally = Counter(f.rule for f in reported)
        lines.append("findings by rule: " + ", ".join(
            f"{rule}={count}" for rule, count in sorted(tally.items())))
    summary = [f"{result.files_scanned} files scanned"]
    if comparison is not None:
        summary.append(f"{len(comparison.new)} new")
        summary.append(f"{len(comparison.baselined)} baselined")
        if comparison.fixed:
            summary.append(f"{comparison.fixed} baselined finding(s) fixed — "
                           f"re-record the baseline to lock them in")
    else:
        summary.append(f"{len(result.findings)} finding(s)")
    if result.suppressed:
        summary.append(f"{len(result.suppressed)} suppressed")
    lines.append("analyze: " + ", ".join(summary))
    return "\n".join(lines)
