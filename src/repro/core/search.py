"""The branch-and-bound skeleton SGSelect and STGSelect share (paper §3.2
and §4.2).

The search explores the set-enumeration tree of candidate groups rooted at
``VS = {q}``.  Each node holds an intermediate solution set ``VS`` and its
own remaining candidate pool ``VA``, and branches on one candidate ``u`` at
a time: first the subtree where ``u`` joins the group, then the subtree
where ``u`` is excluded (by dropping ``u`` from ``VA`` and continuing at the
same node).  At each step of a node, in order:

* a complete group is offered to the :class:`Incumbent`, and a pool too
  small to complete the group ends the node;
* the node-level bounds are checked, each as a separate predicate from
  :mod:`repro.core.pruning`: distance pruning (Lemma 2), acquaintance
  pruning (Lemma 3) and, for STGSelect, availability pruning (Lemma 5);
* access ordering picks the unvisited candidate with the smallest social
  distance that passes the exterior expansibility, interior unfamiliarity
  and, for STGSelect, temporal extensibility conditions.  A candidate that
  fails a condition for good is removed from ``VA``; one that fails only
  the relaxed form is deferred.  When every open candidate is deferred the
  relaxation exponent ``θ`` is lowered, then ``φ`` raised, and the deferred
  candidates are tried again.

The interior unfamiliarity condition at ``θ = 0`` *is* the acquaintance
constraint, so every offered group is feasible by construction.

STGSelect runs the skeleton once per pivot window and passes a
:class:`PivotHook`: the window, the Lemma 5 prune bound to the kernel's
calendar form, and each candidate's schedule.  SGSelect passes no hook, so
the availability prune and the temporal extensibility check are skipped and
``φ`` never relaxes.

The skeleton has two state representations, the two kernels selected by
``SearchParameters.kernel``:

* :class:`BitsetSearch` (``"compiled"``, the default) — the feasible graph
  is mapped to dense integer ids (:mod:`repro.graph.compiled`);
  ``VS``/``VA``/deferred become int bitmasks, the measures become
  AND/popcount expressions, and the per-member stranger counters behind
  ``U``/``A`` are maintained *incrementally* across include/backtrack
  instead of being recomputed from scratch per candidate.
* :class:`ReferenceSearch` (``"reference"``) — the original set-based loop,
  kept as the executable specification.

Both kernels visit the identical search tree and produce identical results
and statistics (asserted by the equivalence and golden test-suites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Set

from ..graph.compiled import CompiledFeasibleGraph
from ..graph.extraction import FeasibleGraph
from ..temporal.pivot import PivotWindow
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
    distance_pruning,
    distance_pruning_bitset,
)
from .query import SearchParameters, SGQuery, STGQuery
from .result import SearchStats

__all__ = ["Incumbent", "PivotHook", "BitsetSearch", "ReferenceSearch", "joint_run"]


class Incumbent:
    """The best group found so far, shared by every search that may improve it.

    STGSelect shares one across all its pivot windows, so the distance bound
    tightens monotonically from one pivot to the next.  ``shared`` and
    ``pivot`` stay ``None`` for an SGQ.
    """

    __slots__ = ("distance", "members", "shared", "pivot", "_stats")

    def __init__(self, stats: SearchStats) -> None:
        self.distance = math.inf
        self.members: Optional[Set[Vertex]] = None
        self.shared: Optional[SlotRange] = None
        self.pivot: Optional[int] = None
        self._stats = stats

    def offer(
        self,
        members: Iterable[Vertex],
        total: float,
        shared: Optional[SlotRange] = None,
        pivot: Optional[int] = None,
    ) -> None:
        """Adopt ``members`` when ``total`` beats the incumbent distance."""
        if total < self.distance:
            self.distance = total
            self.members = set(members)
            self.shared = shared
            self.pivot = pivot
            self._stats.solutions_found += 1


@dataclass(frozen=True)
class PivotHook:
    """What STGSelect adds to the search of one pivot window (paper §4.2).

    Attributes
    ----------
    window:
        The pivot window; every joint run is taken through its pivot.
    schedule:
        The schedule of a candidate, given as the kernel names it (a dense
        id for the compiled kernel, a vertex for the reference kernel).
    availability_pruned:
        Lemma 5 bound to the kernel's calendar form: called with the
        remaining pool and ``|VS|``, it returns ``True`` to prune.  Only
        called while ``use_availability_pruning`` is on.
    """

    window: PivotWindow
    schedule: Callable[[Any], Schedule]
    availability_pruned: Callable[[Any, int], bool]


def joint_run(shared: SlotRange, schedule: Schedule, pivot: int) -> Optional[SlotRange]:
    """The run of consecutive slots through ``pivot``, inside the current
    shared run ``shared``, in which ``schedule`` is free too; ``None`` when
    ``schedule`` is busy at the pivot."""
    if not schedule.is_available(pivot):
        return None
    lo = pivot
    while lo > shared.start and schedule.is_available(lo - 1):
        lo -= 1
    hi = pivot
    while hi < shared.end and schedule.is_available(hi + 1):
        hi += 1
    return SlotRange(lo, hi)


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


class _Search:
    """The per-search constants both state representations share.  ``run``
    takes the feasible graph in the kernel's form and the root pool."""

    def __init__(
        self,
        query: SGQuery | STGQuery,
        parameters: SearchParameters,
        incumbent: Incumbent,
        stats: SearchStats,
        hook: Optional[PivotHook] = None,
    ) -> None:
        self.params = parameters
        self.initiator = query.initiator
        self.p = query.group_size
        self.k = query.acquaintance
        self.incumbent = incumbent
        self.stats = stats
        self.hook = hook
        ordering = parameters.use_access_ordering
        self.theta = parameters.theta if ordering else 0
        # Without a hook there is no temporal condition to relax, so φ
        # starts at its threshold.
        self.phi = parameters.phi if ordering and hook is not None else parameters.phi_threshold
        self.pivot = hook.window.pivot if hook is not None else None


class BitsetSearch(_Search):
    """The skeleton over dense-id bitmasks (the ``"compiled"`` kernel).

    ``strangers[v]`` holds ``|VS - {v} - N_v|`` for every id in
    ``member_ids`` and is maintained incrementally around the include
    branch instead of being recomputed per candidate.
    """

    def run(
        self, compiled: CompiledFeasibleGraph, pool: int, shared: Optional[SlotRange] = None
    ) -> None:
        """Search ``compiled`` from the root ``VS = {q}`` (id 0) over the
        candidate ids in the bitmask ``pool``; ``shared`` is the initiator's
        run through the pivot when there is a hook."""
        self.compiled = compiled
        self.adj = compiled.adj
        self.dist = compiled.dist
        self.member_ids = [0]
        self.strangers = [0] * len(compiled)
        self.expand(1, pool, 0.0, shared)

    def expand(
        self,
        members_mask: int,
        remaining_mask: int,
        current_distance: float,
        shared: Optional[SlotRange],
    ) -> None:
        """Explore one node of the set-enumeration tree."""
        params = self.params
        stats = self.stats
        hook = self.hook
        p = self.p
        k = self.k
        adj = self.adj
        dist = self.dist
        member_ids = self.member_ids
        strangers = self.strangers
        stats.nodes_expanded += 1

        theta = self.theta
        phi = self.phi
        deferred_mask = 0
        members_count = len(member_ids)

        while True:
            if members_count == p:
                self.incumbent.offer(
                    self.compiled.members_of(members_mask), current_distance, shared, self.pivot
                )
                return
            if members_count + remaining_mask.bit_count() < p:
                return

            # --- node-level pruning -----------------------------------
            if params.use_distance_pruning and distance_pruning_bitset(
                incumbent_distance=self.incumbent.distance,
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
            if (
                hook is not None
                and params.use_availability_pruning
                and hook.availability_pruned(remaining_mask, members_count)
            ):
                stats.availability_prunes += 1
                return

            # --- candidate selection (access ordering) ----------------
            selected = -1
            selected_shared = shared
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
                    # Both exponents exhausted and every remaining candidate
                    # deferred or removed: nothing left to branch on here.
                    return
                # Ids follow the access order, so the lowest set bit is the
                # unvisited candidate with the smallest social distance.
                candidate = (open_mask & -open_mask).bit_length() - 1
                stats.candidates_considered += 1

                new_size = members_count + 1
                cand_bit = 1 << candidate
                trial_remaining = remaining_mask & ~cand_bit
                unfam, expans = candidate_measures_bitset(
                    adj, member_ids, strangers, members_mask, trial_remaining, candidate, k
                )
                if not exterior_expansibility_condition(expans, new_size, p):
                    # Lemma 1: this candidate can never complete the group.
                    remaining_mask &= ~cand_bit
                    deferred_mask &= ~cand_bit
                    stats.expansibility_removals += 1
                    continue
                if not interior_unfamiliarity_condition(unfam, new_size, p, k, theta):
                    if theta == 0:
                        # The expanded set already violates the acquaintance
                        # constraint; adding more members can only make it worse.
                        remaining_mask &= ~cand_bit
                        deferred_mask &= ~cand_bit
                        stats.unfamiliarity_removals += 1
                    else:
                        deferred_mask |= cand_bit
                    continue

                cand_shared = shared
                if hook is not None:
                    cand_shared = joint_run(shared, hook.schedule(candidate), self.pivot)
                    m = hook.window.activity_length
                    ext = temporal_extensibility(cand_shared, m)
                    if not temporal_extensibility_condition(
                        ext, new_size, p, m, phi, params.phi_threshold
                    ):
                        if ext < 0:
                            # Adding this candidate destroys temporal
                            # feasibility for every extension of VS.
                            remaining_mask &= ~cand_bit
                            deferred_mask &= ~cand_bit
                            stats.temporal_removals += 1
                        else:
                            deferred_mask |= cand_bit
                        continue

                selected = candidate
                selected_shared = cand_shared

            # --- branch 1: include ``selected`` -----------------------
            sel_bit = 1 << selected
            sel_adj = adj[selected]
            strangers[selected] = (members_mask & ~sel_adj).bit_count()
            for v in member_ids:
                if not sel_adj >> v & 1:
                    strangers[v] += 1
            member_ids.append(selected)
            self.expand(
                members_mask | sel_bit,
                remaining_mask & ~sel_bit,
                current_distance + dist[selected],
                selected_shared,
            )
            member_ids.pop()
            for v in member_ids:
                if not sel_adj >> v & 1:
                    strangers[v] -= 1

            # --- branch 2: exclude ``selected`` and continue ----------
            remaining_mask &= ~sel_bit
            deferred_mask &= ~sel_bit


class ReferenceSearch(_Search):
    """The skeleton over sets of vertices (the ``"reference"`` kernel)."""

    def run(
        self,
        feasible_graph: FeasibleGraph,
        pool: Iterable[Vertex],
        shared: Optional[SlotRange] = None,
    ) -> None:
        """Search ``feasible_graph`` from the root ``VS = {q}`` over the
        candidates in ``pool``; ``shared`` is the initiator's run through the
        pivot when there is a hook."""
        self.graph = feasible_graph.graph
        self.distances = feasible_graph.distances
        self.members: Set[Vertex] = {self.initiator}
        self.expand(list(pool), 0.0, shared)

    def expand(
        self, remaining: List[Vertex], current_distance: float, shared: Optional[SlotRange]
    ) -> None:
        """Explore one node of the set-enumeration tree."""
        params = self.params
        stats = self.stats
        hook = self.hook
        p = self.p
        k = self.k
        graph = self.graph
        distances = self.distances
        members_set = self.members
        stats.nodes_expanded += 1

        # ``remaining`` is owned by this node (each recursion copies it), so
        # in-place removal is safe and keeps the exclude branch cheap.
        theta = self.theta
        phi = self.phi
        deferred: Set[Vertex] = set()

        while True:
            if len(members_set) == p:
                self.incumbent.offer(members_set, current_distance, shared, self.pivot)
                return
            if len(members_set) + len(remaining) < p:
                return

            # --- node-level pruning -----------------------------------
            if params.use_distance_pruning and distance_pruning(
                incumbent_distance=self.incumbent.distance,
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
            if (
                hook is not None
                and params.use_availability_pruning
                and hook.availability_pruned(remaining, len(members_set))
            ):
                stats.availability_prunes += 1
                return

            # --- candidate selection (access ordering) ----------------
            selected: Optional[Vertex] = None
            selected_shared = shared
            while selected is None:
                candidate = _next_unvisited(remaining, deferred, distances)
                if candidate is None:
                    if theta > 0:
                        theta -= 1
                        deferred.clear()
                        continue
                    if phi < params.phi_threshold:
                        phi += 1
                        deferred.clear()
                        continue
                    # Both exponents exhausted and every remaining candidate
                    # deferred or removed: nothing left to branch on here.
                    return
                stats.candidates_considered += 1

                new_size = len(members_set) + 1
                trial_remaining = [v for v in remaining if v != candidate]
                expans = exterior_expansibility(
                    graph, list(members_set) + [candidate], trial_remaining, k
                )
                if not exterior_expansibility_condition(expans, new_size, p):
                    # Lemma 1: this candidate can never complete the group.
                    remaining.remove(candidate)
                    deferred.discard(candidate)
                    stats.expansibility_removals += 1
                    continue

                unfam = interior_unfamiliarity(graph, list(members_set) + [candidate])
                if not interior_unfamiliarity_condition(unfam, new_size, p, k, theta):
                    if theta == 0:
                        # The expanded set already violates the acquaintance
                        # constraint; adding more members can only make it worse.
                        remaining.remove(candidate)
                        deferred.discard(candidate)
                        stats.unfamiliarity_removals += 1
                    else:
                        deferred.add(candidate)
                    continue

                cand_shared = shared
                if hook is not None:
                    cand_shared = joint_run(shared, hook.schedule(candidate), self.pivot)
                    m = hook.window.activity_length
                    ext = temporal_extensibility(cand_shared, m)
                    if not temporal_extensibility_condition(
                        ext, new_size, p, m, phi, params.phi_threshold
                    ):
                        if ext < 0:
                            # Adding this candidate destroys temporal
                            # feasibility for every extension of VS.
                            remaining.remove(candidate)
                            deferred.discard(candidate)
                            stats.temporal_removals += 1
                        else:
                            deferred.add(candidate)
                        continue

                selected = candidate
                selected_shared = cand_shared

            # --- branch 1: include ``selected`` -----------------------
            child_remaining = [v for v in remaining if v != selected]
            members_set.add(selected)
            self.expand(child_remaining, current_distance + distances[selected], selected_shared)
            members_set.discard(selected)

            # --- branch 2: exclude ``selected`` and continue ----------
            remaining.remove(selected)
            deferred.discard(selected)
