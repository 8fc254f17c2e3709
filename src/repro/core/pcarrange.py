"""PCArrange — a model of manual activity coordination (paper §5.1).

The paper's quality study compares STGSelect against *PCArrange*, "an
algorithm imitating the behavior of manual coordination via phone calls,
where the initiator q sequentially invites close friends first and then
finds out the common available time slots".  PCArrange ignores the
acquaintance constraint entirely; the observed constraint ``k_h`` (the
largest number of strangers any attendee ends up with) is extracted from its
result afterwards.

The coordination model implemented here:

1. The initiator calls friends in ascending order of social distance
   (closest first), exactly like working down a phone list.
2. A called friend joins the tentative group only if, after joining, the
   group still shares at least one common period of ``m`` consecutive free
   slots — i.e. the call "checks calendars" and the friend declines when no
   common time would remain.
3. Calling stops once ``p`` attendees (including the initiator) have agreed;
   the activity is scheduled in the earliest remaining common period.

If the phone list is exhausted before ``p`` attendees agree, the manual
coordination fails — which does happen for tight schedules, and is reported
as an infeasible result.
"""

from __future__ import annotations

import time
from typing import List

from ..graph.extraction import extract_feasible_graph
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..types import Vertex
from .constraints import observed_acquaintance
from .query import STGQuery
from .result import STGroupResult, SearchStats

__all__ = ["PCArrange"]


class PCArrange:
    """Greedy closest-friend-first coordination heuristic."""

    def __init__(self, graph: SocialGraph, calendars: CalendarStore) -> None:
        self.graph = graph
        self.calendars = calendars

    def solve(self, query: STGQuery) -> STGroupResult:
        """Run the manual-coordination model for ``query``.

        The acquaintance parameter of ``query`` is ignored (the manual
        coordinator does not reason about mutual acquaintance); use
        :func:`~repro.core.constraints.observed_acquaintance` or
        :meth:`observed_k` to measure the ``k_h`` of the outcome.
        """
        start = time.perf_counter()
        stats = SearchStats()
        q = query.initiator
        p = query.group_size
        m = query.activity_length

        feasible = extract_feasible_graph(self.graph, q, query.radius)
        distances = feasible.distances
        phone_list = feasible.candidates  # already sorted by ascending distance

        group: List[Vertex] = [q]
        joint = self.calendars.get(q)
        if not joint.has_window(m):
            stats.elapsed_seconds = time.perf_counter() - start
            return STGroupResult.infeasible(solver="PCArrange", stats=stats)

        for friend in phone_list:
            if len(group) == p:
                break
            stats.candidates_considered += 1
            trial = joint.intersect(self.calendars.get(friend))
            if trial.has_window(m):
                group.append(friend)
                joint = trial

        stats.elapsed_seconds = time.perf_counter() - start
        if len(group) < p:
            return STGroupResult.infeasible(solver="PCArrange", stats=stats)

        windows = joint.free_windows(m)
        period = windows[0]
        total = sum(distances[v] for v in group if v != q)
        return STGroupResult(
            feasible=True,
            members=frozenset(group),
            total_distance=total,
            period=period,
            pivot=None,
            shared_slots=period,
            solver="PCArrange",
            stats=stats,
        )

    def observed_k(self, result: STGroupResult) -> int:
        """The ``k_h`` of a PCArrange outcome: the smallest ``k`` its group satisfies."""
        if not result.feasible:
            return 0
        return observed_acquaintance(self.graph, result.members)
