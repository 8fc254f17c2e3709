"""STGSelect — exact branch-and-bound algorithm for Social-Temporal Group
Queries (paper §4.2).

STGSelect runs the branch-and-bound skeleton of :mod:`repro.core.search`
once per pivot window, extending SGSelect along the temporal dimension:

* **Pivot time slots** (Lemma 4) — only slots with IDs ``m, 2m, 3m, ...``
  need to be anchored; for each pivot the candidate activity periods live in
  a window of ``2m - 1`` slots, and the searches of all pivots share one
  :class:`~repro.core.search.Incumbent`, so the distance bound tightens
  monotonically.
* **Temporal feasibility per candidate** (Definition 4,
  :func:`~repro.temporal.pivot.pivot_feasible`) — a candidate is admitted
  to a pivot's pool only when it has a free run of at least ``m`` slots
  containing the pivot inside the window.
* **Temporal extensibility** ``X(VS)`` (with its relaxation exponent ``φ``)
  and **availability pruning** (Lemma 5) run inside the skeleton, through
  the pivot's :class:`~repro.core.search.PivotHook`.

Each pivot's pool and hook are built in the kernel's form: for
``"compiled"`` a bitmask over dense ids, a per-id schedule list and the
per-slot busy masks of :func:`~repro.core.pruning.busy_slot_masks`; for
``"reference"`` a vertex list and the calendar store.

The returned :class:`~repro.core.result.STGroupResult` carries the selected
activity period, the pivot it was anchored at, and the full shared run.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..exceptions import InfeasibleQueryError, ScheduleError
from .context import SearchContext, record_into
from ..graph.compiled import CompiledFeasibleGraph, compile_feasible_graph
from ..graph.extraction import FeasibleGraph, extract_query_forms
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..temporal.pivot import PivotWindow, candidate_periods, pivot_feasible, pivot_windows
from ..temporal.schedule import Schedule
from ..temporal.slots import SlotRange
from ..types import Vertex
from .pruning import availability_pruning, availability_pruning_bitset, busy_slot_masks
from .query import STGQuery, SearchParameters
from .result import STGroupResult, SearchStats
from .search import BitsetSearch, Incumbent, PivotHook, ReferenceSearch

__all__ = ["STGSelect", "stg_select"]


class STGSelect:
    """Reusable STGSelect solver bound to one social graph and calendar store.

    Parameters
    ----------
    graph:
        The full social graph ``G``.
    calendars:
        Availability schedules for (at least) every candidate attendee and
        the initiator.
    parameters:
        Search tunables (``θ``, ``φ``, kernel choice, strategy toggles).
    """

    def __init__(
        self,
        graph: SocialGraph,
        calendars: CalendarStore,
        parameters: Optional[SearchParameters] = None,
    ) -> None:
        self.graph = graph
        self.calendars = calendars
        self.parameters = parameters or SearchParameters()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(
        self,
        query: STGQuery,
        on_infeasible: str = "return",
        feasible_graph: Optional[FeasibleGraph] = None,
        compiled_graph: Optional[CompiledFeasibleGraph] = None,
        context: Optional[SearchContext] = None,
    ) -> STGroupResult:
        """Answer ``query`` and return the optimal group and activity period.

        ``feasible_graph`` / ``compiled_graph`` allow a caller (the batched
        :class:`~repro.service.QueryService`) to reuse a cached extraction
        (and its compiled form) for ``(query.initiator, query.radius)``;
        the caller guarantees the correspondence.  ``context`` optionally
        receives this solve's kernel statistics (see
        :class:`~repro.core.context.SearchContext`) — the service layer
        records every solve of a batch into one per-batch
        ``ExecutionContext`` this way.
        """
        start = time.perf_counter()
        stats = SearchStats()
        horizon = self.calendars.horizon
        if query.activity_length > horizon:
            raise ScheduleError(
                f"activity length m={query.activity_length} exceeds the planning horizon {horizon}"
            )

        if feasible_graph is None:
            feasible_graph, compiled_graph = extract_query_forms(
                self.graph, query.initiator, query.radius, self.parameters.kernel
            )
        compiled: Optional[CompiledFeasibleGraph] = None
        if self.parameters.kernel != "reference":
            compiled = compiled_graph or compile_feasible_graph(feasible_graph)

        m = query.activity_length
        if self.parameters.use_pivot_slots:
            windows = pivot_windows(horizon, m)
        else:
            # Degenerate decomposition used by the ablation study: one window
            # per candidate period, anchored at the period's final slot.
            windows = [
                PivotWindow(pivot=period.end, window=period, activity_length=m)
                for period in candidate_periods(horizon, m)
            ]

        incumbent = Incumbent(stats)
        q = query.initiator
        q_schedule = self.calendars.get(q)
        for window in windows:
            # The initiator must be available for some period through this pivot.
            if not pivot_feasible(q_schedule, window):
                continue
            stats.pivots_processed += 1
            q_run = q_schedule.restricted(window.window).run_containing(window.pivot)
            if query.group_size == 1:
                incumbent.offer((q,), 0.0, q_run, window.pivot)
            elif compiled is not None:
                self._search_pivot_bitset(compiled, query, window, q_run, incumbent, stats)
            else:
                self._search_pivot(feasible_graph, query, window, q_run, incumbent, stats)

        stats.elapsed_seconds = time.perf_counter() - start
        record_into(context, stats)
        if incumbent.members is None:
            result = STGroupResult.infeasible(solver="STGSelect", stats=stats)
            if on_infeasible == "raise":
                raise InfeasibleQueryError(f"no feasible group for {query.describe()}")
            return result

        shared: SlotRange = incumbent.shared  # type: ignore[assignment]
        period = self._canonical_period(shared, incumbent.pivot, m)  # type: ignore[arg-type]
        return STGroupResult(
            feasible=True,
            members=frozenset(incumbent.members),
            total_distance=float(incumbent.distance),
            period=period,
            pivot=incumbent.pivot,
            shared_slots=shared,
            solver="STGSelect",
            stats=stats,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _canonical_period(shared: SlotRange, pivot: int, m: int) -> SlotRange:
        """Pick one activity period of exactly ``m`` slots inside the shared run
        that contains the pivot (the earliest such period)."""
        start = max(shared.start, pivot - m + 1)
        start = min(start, shared.end - m + 1)
        return SlotRange(start, start + m - 1)

    # ------------------------------------------------------------------
    # per-pivot pools
    # ------------------------------------------------------------------
    def _search_pivot_bitset(
        self,
        compiled: CompiledFeasibleGraph,
        query: STGQuery,
        window: PivotWindow,
        q_run: SlotRange,
        incumbent: Incumbent,
        stats: SearchStats,
    ) -> None:
        p = query.group_size
        # Pivot-feasible candidate pool (Definition 4) as a bitmask, plus the
        # per-candidate schedules the joint-run updates need.
        schedules: List[Optional[Schedule]] = [None] * len(compiled)
        feasible_mask = 0
        for i in range(1, len(compiled)):
            sched = self.calendars.get(compiled.vertices[i])
            if pivot_feasible(sched, window):
                feasible_mask |= 1 << i
                schedules[i] = sched
        if feasible_mask.bit_count() < p - 1:
            return

        # Per-slot busy masks over the pivot window turn Lemma 5's per-slot
        # candidate scan into one AND/popcount.  Skipped when availability
        # pruning is ablated so the toggle isolates the strategy's full cost.
        busy_masks: Dict[int, int] = {}
        if self.parameters.use_availability_pruning:
            busy_masks = busy_slot_masks(schedules, feasible_mask, window)

        hook = PivotHook(
            window=window,
            schedule=schedules.__getitem__,
            availability_pruned=lambda remaining, count: availability_pruning_bitset(
                busy_masks, remaining, count, p, window
            ),
        )
        search = BitsetSearch(query, self.parameters, incumbent, stats, hook)
        search.run(compiled, feasible_mask, q_run)

    def _search_pivot(
        self,
        feasible_graph: FeasibleGraph,
        query: STGQuery,
        window: PivotWindow,
        q_run: SlotRange,
        incumbent: Incumbent,
        stats: SearchStats,
    ) -> None:
        p = query.group_size
        calendars = self.calendars
        candidates = [
            v for v in feasible_graph.candidates if pivot_feasible(calendars.get(v), window)
        ]
        if len(candidates) < p - 1:
            return

        hook = PivotHook(
            window=window,
            schedule=calendars.get,
            availability_pruned=lambda remaining, count: availability_pruning(
                calendars, remaining, count, p, window
            ),
        )
        search = ReferenceSearch(query, self.parameters, incumbent, stats, hook)
        search.run(feasible_graph, candidates, q_run)


def stg_select(
    graph: SocialGraph,
    calendars: CalendarStore,
    initiator: Vertex,
    group_size: int,
    radius: int,
    acquaintance: int,
    activity_length: int,
    parameters: Optional[SearchParameters] = None,
) -> STGroupResult:
    """Convenience wrapper: build the query and run :class:`STGSelect` once."""
    query = STGQuery(
        initiator=initiator,
        group_size=group_size,
        radius=radius,
        acquaintance=acquaintance,
        activity_length=activity_length,
    )
    return STGSelect(graph, calendars, parameters).solve(query)
