"""Plain-text charts for experiment output.

No plotting dependency is available offline, so the experiment CLI and
benchmarks render series as ASCII: horizontal bar charts for categorical
comparisons (AN5's per-MSS load) and log-friendly curve tables for
sweeps (AN3's retransmission knee).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def hbar_chart(values: Dict[str, float], width: int = 40,
               title: str = "", unit: str = "") -> str:
    """Horizontal bars, one per labelled value, scaled to the maximum."""
    if width < 1:
        raise ValueError("width must be positive")
    lines: List[str] = []
    if title:
        lines.append(title)
    if not values:
        lines.append("(no data)")
        return "\n".join(lines)
    label_width = max(len(str(k)) for k in values)
    peak = max(values.values())
    for label, value in values.items():
        filled = 0 if peak <= 0 else int(round(width * value / peak))
        bar = "#" * filled
        lines.append(f"{str(label):<{label_width}} |{bar:<{width}}| "
                     f"{value:g}{unit}")
    return "\n".join(lines)


def curve(points: Sequence[Tuple[float, float]], width: int = 50,
          height: int = 12, title: str = "",
          log_x: bool = False) -> str:
    """A dot plot of (x, y) points on a character grid."""
    if not points:
        return title or "(no data)"
    xs = [math.log10(x) if log_x else x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in zip(xs, ys):
        col = int((x - x_lo) / x_span * (width - 1))
        row = int((y - y_lo) / y_span * (height - 1))
        grid[height - 1 - row][col] = "*"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"y: {y_lo:g} .. {y_hi:g}")
    lines.extend("|" + "".join(row) + "|" for row in grid)
    x_label = "log10(x)" if log_x else "x"
    lines.append(f"{x_label}: {x_lo:g} .. {x_hi:g}")
    return "\n".join(lines)
