"""Approximate solvers for very large instances (extension beyond the paper).

SGSelect and STGSelect are exact and, the paper notes, necessarily
exponential in the worst case.  For interactive deployments (the paper's
closing remark is that the authors were integrating the algorithms into
Facebook) a bounded-latency approximate answer is often preferable for very
large ego networks.  This module provides that escape hatch:

* :class:`GreedySGQ` — grows the group one attendee at a time, always taking
  the closest candidate whose addition keeps the acquaintance constraint
  satisfiable, then improves the group with swap-based local search.
* :class:`GreedySTGQ` — runs the same construction once per pivot time slot
  (so the temporal machinery — pivot windows, per-member feasibility — is
  shared with the exact solver) and keeps the best period found.

Both return the same result types as the exact algorithms, flag themselves
via ``solver=``, and are benchmarked against the exact optimum in
``tests/core/test_heuristics.py`` (they must be feasible and within a
configurable factor of optimal on small instances, and exact solvers remain
the reference).
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence, Set, Tuple

from ..graph.extraction import FeasibleGraph, extract_feasible_graph
from ..graph.kplex import is_kplex
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..temporal.pivot import PivotWindow, feasible_members_for_pivot, pivot_windows
from ..temporal.slots import SlotRange
from ..types import Vertex
from .query import SGQuery, STGQuery
from .result import GroupResult, STGroupResult, SearchStats

__all__ = ["GreedySGQ", "GreedySTGQ"]


class GreedySGQ:
    """Greedy construction + swap local search for SGQ.

    Parameters
    ----------
    graph:
        The social graph.
    local_search_rounds:
        Maximum number of improvement passes over the group; each pass tries
        to swap every member (except the initiator) with every unused
        candidate and applies the best distance-reducing feasible swap.
    """

    def __init__(self, graph: SocialGraph, local_search_rounds: int = 3) -> None:
        self.graph = graph
        self.local_search_rounds = local_search_rounds

    def solve(self, query: SGQuery, allowed_candidates: Optional[Set[Vertex]] = None) -> GroupResult:
        """Return a feasible (not necessarily optimal) group for ``query``."""
        start = time.perf_counter()
        stats = SearchStats()
        feasible = extract_feasible_graph(self.graph, query.initiator, query.radius)
        candidates = feasible.candidates
        if allowed_candidates is not None:
            candidates = [v for v in candidates if v in allowed_candidates]

        members = self._construct(feasible, query, candidates, stats)
        if members is None:
            stats.elapsed_seconds = time.perf_counter() - start
            return GroupResult.infeasible(solver="GreedySGQ", stats=stats)

        members = self._local_search(feasible, query, members, candidates, stats)
        total = sum(feasible.distances[v] for v in members if v != query.initiator)
        stats.elapsed_seconds = time.perf_counter() - start
        stats.solutions_found += 1
        return GroupResult(
            feasible=True,
            members=frozenset(members),
            total_distance=total,
            solver="GreedySGQ",
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _construct(
        self,
        feasible: FeasibleGraph,
        query: SGQuery,
        candidates: Sequence[Vertex],
        stats: SearchStats,
    ) -> Optional[Set[Vertex]]:
        """Closest-first greedy construction with a feasibility check per step."""
        members: Set[Vertex] = {query.initiator}
        if query.group_size == 1:
            return members
        graph = feasible.graph
        for v in candidates:  # already ordered by ascending distance
            if len(members) == query.group_size:
                break
            stats.candidates_considered += 1
            trial = members | {v}
            if is_kplex(graph, trial, query.acquaintance):
                members = trial
        if len(members) < query.group_size:
            # Greedy got stuck: retry once preferring well-connected candidates,
            # which handles the "close friends are mutual strangers" situation
            # the paper highlights in its introduction.
            members = {query.initiator}
            by_connectivity = sorted(
                candidates,
                key=lambda v: (-len(graph.neighbors(v) & set(candidates)), feasible.distances[v]),
            )
            for v in by_connectivity:
                if len(members) == query.group_size:
                    break
                stats.candidates_considered += 1
                trial = members | {v}
                if is_kplex(graph, trial, query.acquaintance):
                    members = trial
        if len(members) < query.group_size:
            return None
        return members

    def _local_search(
        self,
        feasible: FeasibleGraph,
        query: SGQuery,
        members: Set[Vertex],
        candidates: Sequence[Vertex],
        stats: SearchStats,
    ) -> Set[Vertex]:
        """Swap-based improvement: replace one member with one outsider."""
        graph = feasible.graph
        distances = feasible.distances
        unused = [v for v in candidates if v not in members]
        current = set(members)
        for _ in range(self.local_search_rounds):
            best_gain = 0.0
            best_swap: Optional[Tuple[Vertex, Vertex]] = None
            for out in list(current):
                if out == query.initiator:
                    continue
                for inp in unused:
                    gain = distances[out] - distances[inp]
                    if gain <= best_gain:
                        continue
                    stats.candidates_considered += 1
                    trial = (current - {out}) | {inp}
                    if is_kplex(graph, trial, query.acquaintance):
                        best_gain = gain
                        best_swap = (out, inp)
            if best_swap is None:
                break
            out, inp = best_swap
            current.remove(out)
            current.add(inp)
            unused.remove(inp)
            unused.append(out)
            stats.nodes_expanded += 1
        return current


class GreedySTGQ:
    """Greedy heuristic for STGQ: one greedy SGQ per pivot time slot."""

    def __init__(
        self,
        graph: SocialGraph,
        calendars: CalendarStore,
        local_search_rounds: int = 3,
    ) -> None:
        self.graph = graph
        self.calendars = calendars
        self._sg = GreedySGQ(graph, local_search_rounds=local_search_rounds)

    def solve(self, query: STGQuery) -> STGroupResult:
        """Return a feasible (not necessarily optimal) group and period."""
        start = time.perf_counter()
        stats = SearchStats()
        horizon = self.calendars.horizon
        sg_query = query.social_part()

        best_distance = math.inf
        best_members: Optional[frozenset] = None
        best_period: Optional[SlotRange] = None
        best_pivot: Optional[int] = None

        for window in pivot_windows(horizon, query.activity_length):
            stats.pivots_processed += 1
            available = self._available_for_window(window)
            if query.initiator not in available or len(available) < query.group_size:
                continue
            result = self._sg.solve(sg_query, allowed_candidates=available - {query.initiator})
            stats.merge(result.stats)
            if not result.feasible or result.total_distance >= best_distance:
                continue
            period = self._common_period(result.members, window, query.activity_length)
            if period is None:
                continue
            best_distance = result.total_distance
            best_members = result.members
            best_period = period
            best_pivot = window.pivot
            stats.solutions_found += 1

        stats.elapsed_seconds = time.perf_counter() - start
        if best_members is None:
            return STGroupResult.infeasible(solver="GreedySTGQ", stats=stats)
        return STGroupResult(
            feasible=True,
            members=best_members,
            total_distance=best_distance,
            period=best_period,
            pivot=best_pivot,
            shared_slots=best_period,
            solver="GreedySTGQ",
            stats=stats,
        )

    # ------------------------------------------------------------------
    def _available_for_window(self, window: PivotWindow) -> Set[Vertex]:
        """People with a long-enough free run through the pivot (Definition 4)."""
        return feasible_members_for_pivot(self.calendars, window, self.calendars.people())

    def _common_period(
        self, members: frozenset, window: PivotWindow, activity_length: int
    ) -> Optional[SlotRange]:
        """The earliest period of ``m`` slots inside the window, containing the
        pivot, in which every member is free; ``None`` if there is none."""
        for period in window.periods():
            if all(self.calendars.is_available_range(v, period) for v in members):
                return period
        return None
