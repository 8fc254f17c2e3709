"""Brute-force baseline algorithms (paper §5).

The paper compares its algorithms against two simple baselines:

* **SGQ baseline** — enumerate every possible group of ``p - 1`` candidates
  (``C(f-1, p-1)`` groups for ``f`` feasible candidates), keep the groups
  that satisfy the acquaintance constraint, and return the one with the
  smallest total social distance.
* **STGQ baseline** — "sequentially considering each time slot and solving
  the corresponding SGQ problem": for every candidate activity period of
  ``m`` consecutive slots, restrict the candidate pool to the people
  available for the whole period, solve the induced SGQ, and keep the best
  result over all periods.

Both are exact, so they double as ground truth in the correctness tests; the
STGQ baseline can use SGSelect for the inner problem (matching the paper's
description) or the brute-force enumeration (for a fully independent
cross-check).  In both cases social distances are measured on the full
graph — availability restricts who may *join* the group, not how distances
are computed — matching the STGQ definition in the paper.
"""

from __future__ import annotations

import math
import time
from itertools import combinations
from typing import Optional, Set, Tuple

from ..graph.extraction import extract_feasible_graph
from ..graph.kplex import is_kplex
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..temporal.slots import SlotRange
from ..types import Vertex
from .query import SGQuery, STGQuery, SearchParameters
from .result import GroupResult, STGroupResult, SearchStats

__all__ = ["BaselineSGQ", "BaselineSTGQ"]


class BaselineSGQ:
    """Exhaustive enumeration solver for SGQ."""

    def __init__(self, graph: SocialGraph) -> None:
        self.graph = graph

    def solve(
        self,
        query: SGQuery,
        max_groups: Optional[int] = None,
        allowed_candidates: Optional[Set[Vertex]] = None,
    ) -> GroupResult:
        """Enumerate every candidate group and return the optimum.

        Parameters
        ----------
        query:
            The SGQ to answer.
        max_groups:
            Optional safety cap on the number of enumerated groups; exceeding
            it raises :class:`ValueError`.  Benchmarks use it to guard against
            accidentally launching astronomically large enumerations.
        allowed_candidates:
            Optional restriction of the candidate pool (the initiator is
            always allowed); distances remain those of the full graph.
        """
        start = time.perf_counter()
        stats = SearchStats()

        q = query.initiator
        p = query.group_size
        feasible = extract_feasible_graph(self.graph, q, query.radius)
        candidates = feasible.candidates
        if allowed_candidates is not None:
            candidates = [v for v in candidates if v in allowed_candidates]

        if p == 1:
            stats.elapsed_seconds = time.perf_counter() - start
            return GroupResult(True, frozenset({q}), 0.0, solver="BaselineSGQ", stats=stats)
        if len(candidates) < p - 1:
            stats.elapsed_seconds = time.perf_counter() - start
            return GroupResult.infeasible(solver="BaselineSGQ", stats=stats)

        if max_groups is not None:
            total = math.comb(len(candidates), p - 1)
            if total > max_groups:
                raise ValueError(
                    f"baseline would enumerate {total} groups, above the cap of {max_groups}"
                )

        graph = feasible.graph
        distances = feasible.distances
        best_members: Optional[Tuple[Vertex, ...]] = None
        best_distance = math.inf
        for combo in combinations(candidates, p - 1):
            stats.nodes_expanded += 1
            total_distance = sum(distances[v] for v in combo)
            if total_distance >= best_distance:
                continue
            group = (q,) + combo
            if is_kplex(graph, group, query.acquaintance):
                best_members = group
                best_distance = total_distance
                stats.solutions_found += 1

        stats.elapsed_seconds = time.perf_counter() - start
        if best_members is None:
            return GroupResult.infeasible(solver="BaselineSGQ", stats=stats)
        return GroupResult(
            feasible=True,
            members=frozenset(best_members),
            total_distance=best_distance,
            solver="BaselineSGQ",
            stats=stats,
        )


class BaselineSTGQ:
    """Per-period baseline for STGQ: one SGQ per candidate activity period."""

    def __init__(
        self,
        graph: SocialGraph,
        calendars: CalendarStore,
        inner: str = "sgselect",
        parameters: Optional[SearchParameters] = None,
    ) -> None:
        """``inner`` selects the per-period solver: ``"sgselect"`` (as the
        paper describes) or ``"bruteforce"`` for a fully independent check."""
        if inner not in ("sgselect", "bruteforce"):
            raise ValueError(f"inner must be 'sgselect' or 'bruteforce', got {inner!r}")
        self.graph = graph
        self.calendars = calendars
        self.inner = inner
        self.parameters = parameters or SearchParameters()

    def solve(self, query: STGQuery, max_groups: Optional[int] = None) -> STGroupResult:
        """Enumerate every activity period, solve the induced SGQ, keep the best."""
        from .sgselect import SGSelect  # local import avoids a cycle at module load

        start = time.perf_counter()
        stats = SearchStats()
        horizon = self.calendars.horizon
        m = query.activity_length
        q = query.initiator

        best_distance = math.inf
        best_members: Optional[frozenset] = None
        best_period: Optional[SlotRange] = None

        sg_query = query.social_part()
        feasible = extract_feasible_graph(self.graph, q, query.radius)
        all_candidates = feasible.candidates
        sg_solver = SGSelect(self.graph, self.parameters)
        brute_solver = BaselineSGQ(self.graph)

        for period in SlotRange(1, horizon).windows(m):
            stats.pivots_processed += 1
            if not self.calendars.is_available_range(q, period):
                continue
            available = {
                v for v in all_candidates if self.calendars.is_available_range(v, period)
            }
            if len(available) < query.group_size - 1:
                continue
            if self.inner == "sgselect":
                sub_result = sg_solver.solve(sg_query, allowed_candidates=available)
            else:
                sub_result = brute_solver.solve(
                    sg_query, max_groups=max_groups, allowed_candidates=available
                )
            stats.merge(sub_result.stats)
            if sub_result.feasible and sub_result.total_distance < best_distance:
                best_distance = sub_result.total_distance
                best_members = sub_result.members
                best_period = period
                stats.solutions_found += 1

        stats.elapsed_seconds = time.perf_counter() - start
        if best_members is None:
            return STGroupResult.infeasible(solver="BaselineSTGQ", stats=stats)
        return STGroupResult(
            feasible=True,
            members=best_members,
            total_distance=best_distance,
            period=best_period,
            pivot=None,
            shared_slots=best_period,
            solver="BaselineSTGQ",
            stats=stats,
        )
