"""Ablation study of the search strategies.

The paper credits the individual strategies (access ordering, distance
pruning, acquaintance pruning, availability pruning, pivot time slots) as
the source of SGSelect/STGSelect's advantage; this module measures each
strategy's contribution by re-running the same queries with one strategy
disabled at a time.  Disabling a strategy never changes the returned optimum
(asserted by the integration tests) — only the work performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.query import STGQuery, SGQuery, SearchParameters
from ..core.sgselect import SGSelect
from ..core.stgselect import STGSelect
from ..datasets.base import Dataset
from ..types import Vertex
from .runner import measure

__all__ = ["AblationRow", "AblationReport", "run_sg_ablation", "run_stg_ablation", "format_ablation"]

#: The strategy toggles exercised by the SGQ ablation.
SG_STRATEGIES = {
    "full": {},
    "no-access-ordering": {"use_access_ordering": False},
    "no-distance-pruning": {"use_distance_pruning": False},
    "no-acquaintance-pruning": {"use_acquaintance_pruning": False},
}

#: Additional toggles exercised by the STGQ ablation.
STG_STRATEGIES = {
    **SG_STRATEGIES,
    "no-availability-pruning": {"use_availability_pruning": False},
    "no-pivot-slots": {"use_pivot_slots": False},
}


@dataclass
class AblationRow:
    """Result of one strategy variant."""

    variant: str
    seconds: float
    nodes_expanded: int
    candidates_considered: int
    total_distance: float
    feasible: bool


@dataclass
class AblationReport:
    """All variants for one query."""

    query: str
    rows: List[AblationRow] = field(default_factory=list)

    def slowdown(self, variant: str) -> Optional[float]:
        """Running-time ratio of ``variant`` over the full configuration."""
        full = next((r for r in self.rows if r.variant == "full"), None)
        other = next((r for r in self.rows if r.variant == variant), None)
        if full is None or other is None or full.seconds == 0:
            return None
        return other.seconds / full.seconds


def run_sg_ablation(
    dataset: Dataset,
    initiator: Vertex,
    group_size: int,
    radius: int,
    acquaintance: int,
    repetitions: int = 1,
) -> AblationReport:
    """Ablate the SGQ strategies on one query."""
    query = SGQuery(
        initiator=initiator, group_size=group_size, radius=radius, acquaintance=acquaintance
    )
    report = AblationReport(query=query.describe())
    for variant, overrides in SG_STRATEGIES.items():
        parameters = SearchParameters(**overrides)
        measurement = measure(
            lambda parameters=parameters: SGSelect(dataset.graph, parameters).solve(query),
            repetitions=repetitions,
        )
        result = measurement.result
        report.rows.append(
            AblationRow(
                variant=variant,
                seconds=measurement.seconds_mean,
                nodes_expanded=result.stats.nodes_expanded,
                candidates_considered=result.stats.candidates_considered,
                total_distance=result.total_distance,
                feasible=result.feasible,
            )
        )
    return report


def run_stg_ablation(
    dataset: Dataset,
    initiator: Vertex,
    group_size: int,
    radius: int,
    acquaintance: int,
    activity_length: int,
    repetitions: int = 1,
) -> AblationReport:
    """Ablate the STGQ strategies on one query."""
    query = STGQuery(
        initiator=initiator,
        group_size=group_size,
        radius=radius,
        acquaintance=acquaintance,
        activity_length=activity_length,
    )
    report = AblationReport(query=query.describe())
    for variant, overrides in STG_STRATEGIES.items():
        parameters = SearchParameters(**overrides)
        measurement = measure(
            lambda parameters=parameters: STGSelect(
                dataset.graph, dataset.calendars, parameters
            ).solve(query),
            repetitions=repetitions,
        )
        result = measurement.result
        report.rows.append(
            AblationRow(
                variant=variant,
                seconds=measurement.seconds_mean,
                nodes_expanded=result.stats.nodes_expanded,
                candidates_considered=result.stats.candidates_considered,
                total_distance=result.total_distance,
                feasible=result.feasible,
            )
        )
    return report


def format_ablation(report: AblationReport) -> str:
    """Render an ablation report as an aligned text table."""
    header = ["variant", "seconds", "nodes", "candidates", "distance"]
    rows = [header, ["-" * len(h) for h in header]]
    for row in report.rows:
        rows.append(
            [
                row.variant,
                f"{row.seconds:.4f}",
                str(row.nodes_expanded),
                str(row.candidates_considered),
                f"{row.total_distance:.1f}" if row.feasible else "infeasible",
            ]
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = [report.query]
    for r in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r)))
    return "\n".join(lines)
