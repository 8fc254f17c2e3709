"""STGSelect — exact branch-and-bound algorithm for Social-Temporal Group
Queries (paper §4.2).

STGSelect extends SGSelect along the temporal dimension:

* **Pivot time slots** (Lemma 4) — only slots with IDs ``m, 2m, 3m, ...``
  need to be anchored; for each pivot the candidate activity periods live in
  a window of ``2m - 1`` slots, and the search for different pivots shares a
  single incumbent, so the distance bound tightens monotonically.
* **Temporal feasibility per candidate** (Definition 4) — a candidate is
  admitted to a pivot's search only when it has a free run of at least ``m``
  slots containing the pivot inside the window.
* **Temporal extensibility** ``X(VS)`` joins interior unfamiliarity and
  exterior expansibility in the access ordering; its relaxation exponent
  ``φ`` is raised (up to a threshold) when no candidate qualifies.
* **Availability pruning** (Lemma 5) discards nodes whose remaining
  candidates are collectively too busy around the pivot.

Like SGSelect, two interchangeable kernels drive the per-pivot inner loop
(``SearchParameters.kernel``): the default ``"compiled"`` kernel runs on the
dense-id bitmask form of the feasible graph (incremental stranger counters,
AND/popcount measures, per-slot busy masks for Lemma 5), while
``"reference"`` keeps the original set-based loop as the executable
specification.  Both visit the identical search tree.

The returned :class:`~repro.core.result.STGroupResult` carries the selected
activity period, the pivot it was anchored at, and the full shared run.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from ..exceptions import InfeasibleQueryError, ScheduleError
from .context import SearchContext, record_into
from ..graph.compiled import CompiledFeasibleGraph, compile_feasible_graph, iter_bits
from ..graph.extraction import FeasibleGraph, extract_query_forms
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..temporal.pivot import PivotWindow, pivot_windows
from ..temporal.schedule import Schedule
from ..temporal.slots import SlotRange
from ..types import Vertex
from .ordering import (
    candidate_measures_bitset,
    exterior_expansibility,
    exterior_expansibility_condition,
    interior_unfamiliarity,
    interior_unfamiliarity_condition,
    temporal_extensibility,
    temporal_extensibility_condition,
)
from .pruning import (
    acquaintance_pruning,
    acquaintance_pruning_bitset,
    availability_pruning,
    availability_pruning_bitset,
    distance_pruning,
    distance_pruning_bitset,
)
from .query import STGQuery, SearchParameters
from .result import STGroupResult, SearchStats

__all__ = ["STGSelect", "stg_select"]

#: Incumbent-recording callback: (members, total, shared_run, pivot).
RecordFn = Callable[[object, float, SlotRange, int], None]


def busy_slot_masks(
    schedules: Sequence[Optional[Schedule]], feasible_mask: int, window: PivotWindow
) -> Dict[int, int]:
    """Per-slot busy masks over a pivot window — the compiled kernel's
    input to the Lemma 5 availability prune.

    ``busy[slot]`` has bit ``i`` set when candidate id ``i`` (restricted to
    ``feasible_mask``) is unavailable in ``slot``, so the prune's per-slot
    candidate scan becomes one AND/popcount.
    """
    masks: Dict[int, int] = {}
    for slot in window.window:
        mask = 0
        for i in iter_bits(feasible_mask):
            if not schedules[i].is_available(slot):  # type: ignore[union-attr]
                mask |= 1 << i
        masks[slot] = mask
    return masks


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

        best: Dict[str, object] = {
            "distance": math.inf,
            "members": None,
            "shared": None,
            "pivot": None,
        }

        def record(members, total: float, shared: SlotRange, pivot: int) -> None:
            """Single incumbent-update path shared by both kernels."""
            if total < best["distance"]:  # type: ignore[operator]
                best["distance"] = total
                best["members"] = set(members)
                best["shared"] = shared
                best["pivot"] = pivot
                stats.solutions_found += 1

        if self.parameters.use_pivot_slots:
            windows = pivot_windows(horizon, query.activity_length)
        else:
            # Degenerate decomposition used by the ablation study: one window
            # per candidate period, anchored at the period's final slot.
            windows = self._all_period_windows(horizon, query.activity_length)

        q_schedule = self.calendars.get(query.initiator)
        for window in windows:
            # The initiator must be available for some period through this pivot.
            if not self._member_feasible(q_schedule, window):
                continue
            stats.pivots_processed += 1
            if compiled is not None:
                self._search_pivot_bitset(compiled, query, window, record, best, stats)
            else:
                self._search_pivot(feasible_graph, query, window, record, best, stats)

        stats.elapsed_seconds = time.perf_counter() - start
        record_into(context, stats)
        if best["members"] is None:
            result = STGroupResult.infeasible(solver="STGSelect", stats=stats)
            if on_infeasible == "raise":
                raise InfeasibleQueryError(f"no feasible group for {query.describe()}")
            return result

        shared: SlotRange = best["shared"]  # type: ignore[assignment]
        period = self._canonical_period(shared, best["pivot"], query.activity_length)  # type: ignore[arg-type]
        return STGroupResult(
            feasible=True,
            members=frozenset(best["members"]),  # type: ignore[arg-type]
            total_distance=float(best["distance"]),  # type: ignore[arg-type]
            period=period,
            pivot=best["pivot"],  # type: ignore[arg-type]
            shared_slots=shared,
            solver="STGSelect",
            stats=stats,
        )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _all_period_windows(horizon: int, m: int) -> List[PivotWindow]:
        """Fallback decomposition when pivot slots are disabled: one window per
        candidate period, anchored at the period's final slot."""
        windows = []
        for start in range(1, horizon - m + 2):
            windows.append(
                PivotWindow(pivot=start + m - 1, window=SlotRange(start, start + m - 1), activity_length=m)
            )
        return windows

    @staticmethod
    def _member_feasible(schedule: Schedule, window: PivotWindow) -> bool:
        """Definition 4: available at the pivot with a free run of >= m slots
        inside the window."""
        if window.pivot > schedule.horizon or not schedule.is_available(window.pivot):
            return False
        run = schedule.restricted(window.window).run_containing(window.pivot)
        return run is not None and len(run) >= window.activity_length

    @staticmethod
    def _canonical_period(shared: SlotRange, pivot: int, m: int) -> SlotRange:
        """Pick one activity period of exactly ``m`` slots inside the shared run
        that contains the pivot (the earliest such period)."""
        start = max(shared.start, pivot - m + 1)
        start = min(start, shared.end - m + 1)
        return SlotRange(start, start + m - 1)

    # ------------------------------------------------------------------
    # per-pivot search (compiled kernel)
    # ------------------------------------------------------------------
    def _search_pivot_bitset(
        self,
        compiled: CompiledFeasibleGraph,
        query: STGQuery,
        window: PivotWindow,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        q = query.initiator
        p = query.group_size

        q_shared = self.calendars.get(q).restricted(window.window).run_containing(window.pivot)
        if q_shared is None or len(q_shared) < query.activity_length:
            return
        if p == 1:
            record((q,), 0.0, q_shared, window.pivot)
            return

        # Pivot-feasible candidate pool (Definition 4) as a bitmask, plus the
        # per-candidate schedules the joint-run updates need.
        schedules: List[Optional[Schedule]] = [None] * len(compiled)
        feasible_mask = 0
        for i in range(1, len(compiled)):
            sched = self.calendars.get(compiled.vertices[i])
            if self._member_feasible(sched, window):
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

        strangers = [0] * len(compiled)
        self._expand_bitset(
            compiled=compiled,
            schedules=schedules,
            busy_masks=busy_masks,
            query=query,
            window=window,
            members_mask=1,
            member_ids=[0],
            strangers=strangers,
            shared=q_shared,
            remaining_mask=feasible_mask,
            current_distance=0.0,
            record=record,
            best=best,
            stats=stats,
        )

    def _expand_bitset(
        self,
        compiled: CompiledFeasibleGraph,
        schedules: List[Optional[Schedule]],
        busy_masks: Dict[int, int],
        query: STGQuery,
        window: PivotWindow,
        members_mask: int,
        member_ids: List[int],
        strangers: List[int],
        shared: SlotRange,
        remaining_mask: int,
        current_distance: float,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        """Explore one node of the per-pivot set-enumeration tree (bitset state)."""
        params = self.parameters
        p = query.group_size
        k = query.acquaintance
        m = query.activity_length
        adj = compiled.adj
        dist = compiled.dist
        stats.nodes_expanded += 1

        theta = params.theta if params.use_access_ordering else 0
        phi = params.phi if params.use_access_ordering else params.phi_threshold
        deferred_mask = 0
        members_count = len(member_ids)

        while True:
            if members_count == p:
                record(compiled.members_of(members_mask), current_distance, shared, window.pivot)
                return
            if members_count + remaining_mask.bit_count() < p:
                return

            # --- node-level pruning -----------------------------------
            if params.use_distance_pruning and distance_pruning_bitset(
                incumbent_distance=best["distance"],  # type: ignore[arg-type]
                current_distance=current_distance,
                members_count=members_count,
                group_size=p,
                remaining_mask=remaining_mask,
                dist=dist,
            ):
                stats.distance_prunes += 1
                return
            if params.use_acquaintance_pruning and acquaintance_pruning_bitset(
                adj=adj,
                remaining_mask=remaining_mask,
                members_count=members_count,
                group_size=p,
                acquaintance=k,
            ):
                stats.acquaintance_prunes += 1
                return
            if params.use_availability_pruning and availability_pruning_bitset(
                busy_masks=busy_masks,
                remaining_mask=remaining_mask,
                members_count=members_count,
                group_size=p,
                window=window,
            ):
                stats.availability_prunes += 1
                return

            # --- candidate selection (access ordering) ----------------
            selected = -1
            selected_shared: Optional[SlotRange] = None
            while selected < 0:
                open_mask = remaining_mask & ~deferred_mask
                if not open_mask:
                    if theta > 0:
                        theta -= 1
                        deferred_mask = 0
                        continue
                    if phi < params.phi_threshold:
                        phi += 1
                        deferred_mask = 0
                        continue
                    return
                candidate = (open_mask & -open_mask).bit_length() - 1
                stats.candidates_considered += 1

                new_size = members_count + 1
                cand_bit = 1 << candidate
                trial_remaining = remaining_mask & ~cand_bit
                unfam, expans = candidate_measures_bitset(
                    adj, member_ids, strangers, members_mask, trial_remaining, candidate, k
                )
                if not exterior_expansibility_condition(expans, new_size, p):
                    remaining_mask &= ~cand_bit
                    deferred_mask &= ~cand_bit
                    stats.expansibility_removals += 1
                    continue
                if not interior_unfamiliarity_condition(unfam, new_size, p, k, theta):
                    if theta == 0:
                        remaining_mask &= ~cand_bit
                        deferred_mask &= ~cand_bit
                        stats.unfamiliarity_removals += 1
                    else:
                        deferred_mask |= cand_bit
                    continue

                cand_shared = self._joint_run_schedule(
                    shared, schedules[candidate], window  # type: ignore[arg-type]
                )
                ext = temporal_extensibility(cand_shared, m)
                if not temporal_extensibility_condition(
                    ext, new_size, p, m, phi, params.phi_threshold
                ):
                    if ext < 0:
                        # Adding this candidate destroys temporal feasibility
                        # for every extension of the current VS.
                        remaining_mask &= ~cand_bit
                        deferred_mask &= ~cand_bit
                        stats.temporal_removals += 1
                    else:
                        deferred_mask |= cand_bit
                    continue

                selected = candidate
                selected_shared = cand_shared

            # --- branch 1: include ``selected`` -----------------------
            assert selected_shared is not None
            sel_bit = 1 << selected
            sel_adj = adj[selected]
            strangers[selected] = (members_mask & ~sel_adj).bit_count()
            for v in member_ids:
                if not sel_adj >> v & 1:
                    strangers[v] += 1
            member_ids.append(selected)
            self._expand_bitset(
                compiled=compiled,
                schedules=schedules,
                busy_masks=busy_masks,
                query=query,
                window=window,
                members_mask=members_mask | sel_bit,
                member_ids=member_ids,
                strangers=strangers,
                shared=selected_shared,
                remaining_mask=remaining_mask & ~sel_bit,
                current_distance=current_distance + dist[selected],
                record=record,
                best=best,
                stats=stats,
            )
            member_ids.pop()
            for v in member_ids:
                if not sel_adj >> v & 1:
                    strangers[v] -= 1

            # --- branch 2: exclude ``selected`` and continue ----------
            remaining_mask &= ~sel_bit
            deferred_mask &= ~sel_bit

    # ------------------------------------------------------------------
    # per-pivot search (reference kernel)
    # ------------------------------------------------------------------
    def _search_pivot(
        self,
        feasible_graph: FeasibleGraph,
        query: STGQuery,
        window: PivotWindow,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        q = query.initiator
        p = query.group_size
        graph = feasible_graph.graph
        distances = feasible_graph.distances

        q_shared = self.calendars.get(q).restricted(window.window).run_containing(window.pivot)
        if q_shared is None or len(q_shared) < query.activity_length:
            return
        if p == 1:
            record((q,), 0.0, q_shared, window.pivot)
            return

        candidates = [
            v
            for v in feasible_graph.candidates
            if self._member_feasible(self.calendars.get(v), window)
        ]
        if len(candidates) < p - 1:
            return

        self._expand(
            graph=graph,
            distances=distances,
            query=query,
            window=window,
            members=[q],
            members_set={q},
            shared=q_shared,
            remaining=list(candidates),
            current_distance=0.0,
            record=record,
            best=best,
            stats=stats,
        )

    def _expand(
        self,
        graph: SocialGraph,
        distances,
        query: STGQuery,
        window: PivotWindow,
        members: List[Vertex],
        members_set: Set[Vertex],
        shared: SlotRange,
        remaining: List[Vertex],
        current_distance: float,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        """Explore one node of the per-pivot set-enumeration tree."""
        params = self.parameters
        p = query.group_size
        k = query.acquaintance
        m = query.activity_length
        stats.nodes_expanded += 1

        theta = params.theta if params.use_access_ordering else 0
        phi = params.phi if params.use_access_ordering else params.phi_threshold
        deferred: Set[Vertex] = set()

        while True:
            if len(members_set) == p:
                record(members_set, current_distance, shared, window.pivot)
                return
            if len(members_set) + len(remaining) < p:
                return

            # --- node-level pruning -----------------------------------
            if params.use_distance_pruning and distance_pruning(
                incumbent_distance=best["distance"],  # type: ignore[arg-type]
                current_distance=current_distance,
                members_count=len(members_set),
                group_size=p,
                remaining_distances=(distances[v] for v in remaining),
            ):
                stats.distance_prunes += 1
                return
            if params.use_acquaintance_pruning and acquaintance_pruning(
                graph=graph,
                remaining=remaining,
                members_count=len(members_set),
                group_size=p,
                acquaintance=k,
            ):
                stats.acquaintance_prunes += 1
                return
            if params.use_availability_pruning and availability_pruning(
                calendars=self.calendars,
                remaining=remaining,
                members_count=len(members_set),
                group_size=p,
                window=window,
            ):
                stats.availability_prunes += 1
                return

            # --- candidate selection (access ordering) ----------------
            selected: Optional[Vertex] = None
            selected_shared: Optional[SlotRange] = None
            while selected is None:
                candidate = self._next_unvisited(remaining, deferred, distances)
                if candidate is None:
                    if theta > 0:
                        theta -= 1
                        deferred.clear()
                        continue
                    if phi < params.phi_threshold:
                        phi += 1
                        deferred.clear()
                        continue
                    return
                stats.candidates_considered += 1

                new_size = len(members_set) + 1
                trial_remaining = [v for v in remaining if v != candidate]
                expans = exterior_expansibility(
                    graph, list(members_set) + [candidate], trial_remaining, k
                )
                if not exterior_expansibility_condition(expans, new_size, p):
                    remaining.remove(candidate)
                    deferred.discard(candidate)
                    stats.expansibility_removals += 1
                    continue

                unfam = interior_unfamiliarity(graph, list(members_set) + [candidate])
                if not interior_unfamiliarity_condition(unfam, new_size, p, k, theta):
                    if theta == 0:
                        remaining.remove(candidate)
                        deferred.discard(candidate)
                        stats.unfamiliarity_removals += 1
                    else:
                        deferred.add(candidate)
                    continue

                cand_shared = self._joint_run(shared, candidate, window)
                ext = temporal_extensibility(cand_shared, m)
                if not temporal_extensibility_condition(
                    ext, new_size, p, m, phi, params.phi_threshold
                ):
                    if ext < 0:
                        # Adding this candidate destroys temporal feasibility
                        # for every extension of the current VS.
                        remaining.remove(candidate)
                        deferred.discard(candidate)
                        stats.temporal_removals += 1
                    else:
                        deferred.add(candidate)
                    continue

                selected = candidate
                selected_shared = cand_shared

            # --- branch 1: include ``selected`` -----------------------
            assert selected_shared is not None
            child_remaining = [v for v in remaining if v != selected]
            members.append(selected)
            members_set.add(selected)
            self._expand(
                graph=graph,
                distances=distances,
                query=query,
                window=window,
                members=members,
                members_set=members_set,
                shared=selected_shared,
                remaining=child_remaining,
                current_distance=current_distance + distances[selected],
                record=record,
                best=best,
                stats=stats,
            )
            members.pop()
            members_set.discard(selected)

            # --- branch 2: exclude ``selected`` and continue ----------
            remaining.remove(selected)
            deferred.discard(selected)

    def _joint_run(
        self, shared: SlotRange, candidate: Vertex, window: PivotWindow
    ) -> Optional[SlotRange]:
        """Shared run of consecutive free slots containing the pivot after
        intersecting the current run with ``candidate``'s availability."""
        return self._joint_run_schedule(shared, self.calendars.get(candidate), window)

    @staticmethod
    def _joint_run_schedule(
        shared: SlotRange, schedule: Schedule, window: PivotWindow
    ) -> Optional[SlotRange]:
        """Joint-run computation shared by both kernels."""
        pivot = window.pivot
        if not schedule.is_available(pivot):
            return None
        lo = pivot
        while lo > shared.start and schedule.is_available(lo - 1):
            lo -= 1
        hi = pivot
        while hi < shared.end and schedule.is_available(hi + 1):
            hi += 1
        return SlotRange(lo, hi)

    @staticmethod
    def _next_unvisited(
        remaining: Sequence[Vertex], deferred: Set[Vertex], distances
    ) -> Optional[Vertex]:
        """Return the unvisited candidate with the smallest social distance."""
        best_v = None
        best_d = math.inf
        for v in remaining:
            if v in deferred:
                continue
            d = distances[v]
            if d < best_d:
                best_d = d
                best_v = v
        return best_v


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
