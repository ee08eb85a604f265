"""AST-based RNG stream-ownership linter (rule SHD004).

Static counterpart of the runtime gates (``repro.verify``): where the
oracle, the fuzz campaigns and the cross-seed trace test check executed
schedules, this pass checks one structural rule over the whole tree:
no component derives an RNG substream another role owns.

Entry points: :func:`run_analysis` (programmatic),
``python -m repro.experiments analyze`` (CLI).  See
``docs/STATIC_ANALYSIS.md`` for the rule and the retired rules' mutant
evidence.
"""

from .engine import run_analysis
from .model import SourceTree
from .ownership import classify_path
from .report import render_result, render_sarif

__all__ = [
    "SourceTree",
    "classify_path",
    "render_result",
    "render_sarif",
    "run_analysis",
]
