"""AST-based protocol-conformance and determinism linter.

Static counterpart of the runtime invariant oracle (``repro.verify``):
where the oracle checks executed schedules, these passes check the
*structure* of the whole tree — every sent message kind has a handler,
every result-bearing handler can reach its ack send, and no simulator
code path depends on wall clocks, process-global randomness, ``id()``/
``hash()`` values, or set iteration order.

Entry points: :func:`run_analysis` (programmatic),
``python -m repro.experiments analyze`` (CLI).  See
``docs/STATIC_ANALYSIS.md`` for the rule catalogue, the
``# repro: allow[RULE]`` suppression syntax, and the baseline ratchet.
"""

from .baseline import (
    compare,
    load_baseline,
    load_justifications,
    save_baseline,
    unjustified,
)
from .engine import RULES, run_analysis
from .model import SourceTree
from .ownership import classify_path
from .protocol_model import build_protocol_model
from .report import render_json, render_result, render_sarif

__all__ = [
    "RULES",
    "SourceTree",
    "build_protocol_model",
    "classify_path",
    "compare",
    "load_baseline",
    "load_justifications",
    "render_json",
    "render_result",
    "render_sarif",
    "run_analysis",
    "save_baseline",
    "unjustified",
]
