"""Text and CSV reporting for experiment results.

The paper presents its evaluation as log-scale line plots; in a library the
equivalent artefact is a table per figure with one row per sweep value and
one column per algorithm.  These helpers render a
:class:`~repro.experiments.runner.FigureSeries` as an aligned text table
(used by the CLI) or as CSV rows (for downstream plotting).
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional, Sequence

from .runner import FigureSeries

__all__ = ["format_table", "format_quality_table", "to_csv", "speedup_summary"]


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def format_table(series: FigureSeries) -> str:
    """Render a performance panel as an aligned text table."""
    algorithms = series.algorithms()
    header = [series.sweep_name] + algorithms
    rows: List[List[str]] = []
    for point in series.points:
        row = [str(point.sweep_value)]
        for name in algorithms:
            measurement = point.measurements.get(name)
            row.append(_format_seconds(measurement.seconds_mean if measurement else None))
        rows.append(row)
    return _align([header] + rows, title=f"Figure {series.figure}: {series.description}")


def format_quality_table(series: FigureSeries) -> str:
    """Render a quality panel (Figures 1(g)/(h)) as an aligned text table."""
    header = [
        series.sweep_name,
        "PCArrange k",
        "STGArrange k",
        "PCArrange distance",
        "STGArrange distance",
    ]
    rows: List[List[str]] = []
    for point in series.points:
        extra = point.extra
        pc_dist = extra.get("pcarrange_distance", math.nan)
        st_dist = extra.get("stgarrange_distance", math.nan)
        rows.append(
            [
                str(point.sweep_value),
                str(extra.get("pcarrange_k", "-")) if extra.get("pcarrange_feasible") else "infeasible",
                str(extra.get("stgarrange_k", "-")),
                f"{pc_dist:.1f}" if isinstance(pc_dist, (int, float)) and math.isfinite(pc_dist) else "-",
                f"{st_dist:.1f}" if isinstance(st_dist, (int, float)) and math.isfinite(st_dist) else "-",
            ]
        )
    return _align([header] + rows, title=f"Figure {series.figure}: {series.description}")


def to_csv(series: FigureSeries) -> str:
    """Render a panel as CSV (sweep value, algorithm, mean seconds, extras)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["figure", "sweep_name", "sweep_value", "algorithm", "seconds_mean", "repetitions"])
    for point in series.points:
        for name, measurement in point.measurements.items():
            writer.writerow(
                [
                    series.figure,
                    series.sweep_name,
                    point.sweep_value,
                    name,
                    f"{measurement.seconds_mean:.9f}",
                    measurement.repetitions,
                ]
            )
    return buffer.getvalue()


def speedup_summary(series: FigureSeries, fast: str, slow: str) -> Dict[object, float]:
    """Speed-up of ``fast`` over ``slow`` per sweep value (slow / fast)."""
    summary: Dict[object, float] = {}
    for point in series.points:
        fast_m = point.measurements.get(fast)
        slow_m = point.measurements.get(slow)
        if fast_m is None or slow_m is None or fast_m.seconds_mean == 0:
            continue
        summary[point.sweep_value] = slow_m.seconds_mean / fast_m.seconds_mean
    return summary


def _align(rows: Sequence[Sequence[str]], title: str = "") -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    if title:
        lines.append(title)
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
        if idx == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(row))))
    return "\n".join(lines)
