"""Analysis: metrics, statistics, sequence charts, timelines."""

from .charts import curve, hbar_chart
from .metrics import MetricsRegistry
from .sequence import ChartEntry, extract_chart, kinds_in_order, render_chart, subsequence_present
from .timeline import TimelineEvent, extract_timeline, lane_summary, render_timeline
from .stats import (
    Summary,
    imbalance_ratio,
    jain_fairness,
    mean,
    percentile,
    stddev,
    summarize,
)

__all__ = [
    "ChartEntry",
    "MetricsRegistry",
    "curve",
    "hbar_chart",
    "Summary",
    "TimelineEvent",
    "extract_timeline",
    "lane_summary",
    "render_timeline",
    "extract_chart",
    "imbalance_ratio",
    "jain_fairness",
    "kinds_in_order",
    "mean",
    "percentile",
    "render_chart",
    "stddev",
    "subsequence_present",
    "summarize",
]
