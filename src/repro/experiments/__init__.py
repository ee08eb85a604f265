"""The paper's reproducible artifacts: figure scenarios and analytical
experiments (see DESIGN.md for the experiment index)."""

from .an1_reliability import ReliabilityResult, run_an1, run_reliability
from .an2_exactly_once import RaceOutcome, run_an2, run_race
from .an3_retransmission import THRESHOLD, ThresholdPoint, run_an3, run_point
from .an4_overhead import OverheadResult, run_an4, run_overhead
from .an5_load_balance import LoadBalanceResult, run_an5, run_policy
from .an6_causal_ablation import AblationResult, run_an6, run_ordering
from .an7_handoff_cost import HandoffCostResult, run_an7, run_protocol
from .an8_ack_priority import AckPriorityResult, run_an8, run_priority
from .an9_retention import RetentionResult, run_an9, run_retention
from .an10_latency import LatencyPoint, run_an10, run_latency_point
from .an11_triangle import TrianglePoint, run_an11, run_triangle
from .an12_proxy_migration import run_an12, run_subscription_walk
from .an13_mss_failures import FailureResult, run_an13, run_failures
from .harness import Table, drain, dump_tables, settle_active
from .scenarios import (
    FIG3_EXPECTED_KINDS,
    FIG4_EXPECTED_KINDS,
    ScenarioResult,
    run_fig1,
    run_fig3,
    run_fig4,
)

__all__ = [
    "AblationResult",
    "FIG3_EXPECTED_KINDS",
    "FIG4_EXPECTED_KINDS",
    "HandoffCostResult",
    "LoadBalanceResult",
    "OverheadResult",
    "RaceOutcome",
    "ReliabilityResult",
    "ScenarioResult",
    "THRESHOLD",
    "Table",
    "ThresholdPoint",
    "drain",
    "dump_tables",
    "run_an1",
    "run_an2",
    "run_an3",
    "run_an4",
    "run_an5",
    "run_an6",
    "run_an7",
    "run_an8",
    "run_an9",
    "run_an10",
    "run_an11",
    "run_an12",
    "run_an13",
    "run_failures",
    "FailureResult",
    "run_subscription_walk",
    "run_triangle",
    "TrianglePoint",
    "LatencyPoint",
    "run_latency_point",
    "AckPriorityResult",
    "RetentionResult",
    "run_priority",
    "run_retention",
    "run_fig1",
    "run_fig3",
    "run_fig4",
    "run_ordering",
    "run_overhead",
    "run_point",
    "run_policy",
    "run_protocol",
    "run_race",
    "run_reliability",
    "settle_active",
]
