"""Text and SARIF rendering of analyzer results.

Both formats report every finding in the engine's stable (path, line,
rule, message) order, so reruns are byte-identical and CI can diff
artifacts.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List

from .engine import RULES, AnalysisResult


def render_sarif(result: AnalysisResult) -> str:
    """SARIF 2.1.0 document for CI code-scanning annotations."""
    used_rules = sorted({f.rule for f in result.findings})
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
                    for f in result.findings
                ],
            },
        ],
    }
    return json.dumps(sarif, indent=2) + "\n"


def render_result(result: AnalysisResult) -> str:
    """Full human-readable report: findings, per-rule tally, summary."""
    lines: List[str] = []
    if result.findings:
        lines.extend(f.render() for f in result.findings)
        lines.append("")
        tally = Counter(f.rule for f in result.findings)
        lines.append("findings by rule: " + ", ".join(
            f"{rule}={count}" for rule, count in sorted(tally.items())))
    lines.append(f"analyze: {result.files_scanned} files scanned, "
                 f"{len(result.findings)} finding(s)")
    return "\n".join(lines)
