"""Baseline ratchet: CI fails on *new* findings only.

A baseline is a JSON map of finding fingerprints (rule + file +
normalized source line — line numbers excluded so pure moves don't
invalidate it) to occurrence counts.  Comparing a run against the
baseline yields the findings that exceed their baselined count; fixing a
finding and re-recording shrinks the baseline, so the ratchet only ever
tightens unless someone deliberately re-records with new debt.

Every baselined fingerprint must carry a written justification in the
optional ``justifications`` map (fingerprint → one-line reason).  The
CLI reports entries without one; re-recording preserves justifications
for fingerprints that survive and drops the rest.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from .model import Finding

BASELINE_VERSION = 1


@dataclass
class BaselineComparison:
    """Result of diffing a run against a baseline."""

    new: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    fixed: int = 0  # baseline entries no longer observed


def load_baseline(path: Path) -> Dict[str, int]:
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(
            f"unsupported baseline version {data.get('version')!r} in {path}")
    findings = data.get("findings", {})
    return {str(k): int(v) for k, v in findings.items()}


def load_justifications(path: Path) -> Dict[str, str]:
    """Fingerprint → written justification (empty map when absent)."""
    if not path.exists():
        return {}
    data = json.loads(path.read_text(encoding="utf-8"))
    justifications = data.get("justifications", {})
    return {str(k): str(v) for k, v in justifications.items()}


def unjustified(baseline: Dict[str, int],
                justifications: Dict[str, str]) -> List[str]:
    """Baselined fingerprints that carry no written justification."""
    return sorted(fp for fp in baseline if not justifications.get(fp))


def save_baseline(path: Path, findings: List[Finding],
                  justifications: Optional[Dict[str, str]] = None) -> None:
    counts = Counter(f.fingerprint() for f in findings)
    if justifications is None and path.exists():
        justifications = load_justifications(path)
    kept = {fp: text for fp, text in sorted((justifications or {}).items())
            if fp in counts}
    payload: Dict[str, object] = {
        "version": BASELINE_VERSION,
        "findings": {fp: counts[fp] for fp in sorted(counts)},
    }
    if kept:
        payload["justifications"] = kept
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def compare(findings: List[Finding],
            baseline: Dict[str, int]) -> BaselineComparison:
    """Split *findings* into new-vs-baselined; count entries now fixed."""
    budget = dict(baseline)
    comparison = BaselineComparison()
    for finding in findings:
        fp = finding.fingerprint()
        if budget.get(fp, 0) > 0:
            budget[fp] -= 1
            comparison.baselined.append(finding)
        else:
            comparison.new.append(finding)
    comparison.fixed = sum(count for count in budget.values() if count > 0)
    return comparison
