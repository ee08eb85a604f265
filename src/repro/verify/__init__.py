"""Online protocol verification: invariant oracle + fuzz harness.

:mod:`repro.verify.oracle` watches a live :class:`~repro.sim.TraceRecorder`
through its sink interface and checks the paper's delivery guarantees
*while the simulation runs*; :mod:`repro.verify.fuzz` generates
deterministic randomized fault schedules, runs them with the oracle
attached, shrinks failures to minimal reproducers and emits replayable
seed files.
"""

from .oracle import (
    CausalWiredOrder,
    ExactlyOnceDelivery,
    InvariantChecker,
    InvariantViolation,
    NoCustodyLeak,
    NoLostResult,
    Oracle,
    PrefHandoverConsistency,
    SafeProxyDeletion,
    SingleProxyPerSeries,
    default_checkers,
)
from .canonical import canonical_lines
from .fuzz import (
    FuzzCase,
    FuzzConfig,
    FuzzOp,
    FuzzProfile,
    FuzzResult,
    generate_case,
    load_case,
    run_campaign,
    run_case,
    save_repro,
    shrink_case,
)

__all__ = [
    "CausalWiredOrder",
    "ExactlyOnceDelivery",
    "InvariantChecker",
    "InvariantViolation",
    "NoCustodyLeak",
    "NoLostResult",
    "Oracle",
    "PrefHandoverConsistency",
    "SafeProxyDeletion",
    "SingleProxyPerSeries",
    "default_checkers",
    "canonical_lines",
    "FuzzCase",
    "FuzzConfig",
    "FuzzOp",
    "FuzzProfile",
    "FuzzResult",
    "generate_case",
    "load_case",
    "run_campaign",
    "run_case",
    "save_repro",
    "shrink_case",
]
