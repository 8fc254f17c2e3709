"""SGSelect — exact branch-and-bound algorithm for Social Group Queries
(paper §3.2).

The search explores the set-enumeration tree of candidate groups rooted at
``VS = {q}``.  At each node it holds an intermediate solution set ``VS`` and
a remaining candidate set ``VA`` and branches on one candidate ``u`` at a
time: first the subtree where ``u`` joins the group, then the subtree where
``u`` is excluded (by dropping ``u`` from ``VA`` and continuing at the same
node).  Optimality relies on three ingredients:

* **Access ordering** — candidates are tried in ascending social distance,
  but a candidate is only *branched on* when the interior unfamiliarity and
  exterior expansibility conditions hold; failing candidates are deferred
  (the condition threshold ``θ`` is relaxed when nobody qualifies) or
  removed outright when the failure is provably permanent.
* **Distance pruning** (Lemma 2) and **acquaintance pruning** (Lemma 3) —
  sound node-level prunes based on the incumbent distance and on the inner
  degrees of the remaining candidates.
* The interior unfamiliarity condition at ``θ = 0`` *is* the acquaintance
  constraint, so every recorded solution is feasible by construction.

Two interchangeable kernels drive the inner loop (selected via
``SearchParameters.kernel``):

* ``"compiled"`` (default) — the feasible graph is mapped to dense integer
  ids (:mod:`repro.graph.compiled`); ``VS``/``VA``/deferred become int
  bitmasks, the measures become AND/popcount expressions, and the
  per-member stranger counters behind ``U``/``A`` are maintained
  *incrementally* across include/backtrack instead of being recomputed
  from scratch per candidate.
* ``"reference"`` — the original pure-Python set-based loop, kept as the
  executable specification.  Both kernels visit the identical search tree
  and produce identical results and statistics (asserted by the
  equivalence test-suite).

The solver reports rich :class:`~repro.core.result.SearchStats` so the
experiment harness can attribute speed-ups to individual strategies.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..exceptions import InfeasibleQueryError
from .context import SearchContext, record_into
from ..graph.compiled import CompiledFeasibleGraph, compile_feasible_graph
from ..graph.extraction import FeasibleGraph, extract_query_forms
from ..graph.social_graph import SocialGraph
from ..types import Vertex
from .ordering import (
    candidate_measures_bitset,
    exterior_expansibility,
    exterior_expansibility_condition,
    interior_unfamiliarity,
    interior_unfamiliarity_condition,
)
from .pruning import (
    acquaintance_pruning,
    acquaintance_pruning_bitset,
    distance_pruning,
    distance_pruning_bitset,
)
from .query import SearchParameters, SGQuery
from .result import GroupResult, SearchStats

__all__ = ["SGSelect", "sg_select"]

#: Signature of the incumbent-recording callback shared by both kernels.
RecordFn = Callable[[Set[Vertex], float], None]


class SGSelect:
    """Reusable SGSelect solver bound to one social graph.

    Parameters
    ----------
    graph:
        The full social graph ``G``.
    parameters:
        Search tunables (``θ`` start value, kernel choice, and strategy
        toggles); defaults reproduce the paper's configuration on the
        compiled kernel.

    Examples
    --------
    >>> from repro.graph import SocialGraph
    >>> g = SocialGraph()
    >>> for u, v, d in [("q", "a", 1.0), ("q", "b", 2.0), ("a", "b", 1.0)]:
    ...     g.add_edge(u, v, d)
    >>> solver = SGSelect(g)
    >>> result = solver.solve(SGQuery(initiator="q", group_size=3, radius=1, acquaintance=0))
    >>> result.feasible, result.total_distance
    (True, 3.0)
    """

    def __init__(self, graph: SocialGraph, parameters: Optional[SearchParameters] = None) -> None:
        self.graph = graph
        self.parameters = parameters or SearchParameters()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(
        self,
        query: SGQuery,
        on_infeasible: str = "return",
        allowed_candidates: Optional[Set[Vertex]] = None,
        feasible_graph: Optional[FeasibleGraph] = None,
        compiled_graph: Optional[CompiledFeasibleGraph] = None,
        context: Optional[SearchContext] = None,
    ) -> GroupResult:
        """Answer ``query`` and return the optimal group.

        Parameters
        ----------
        query:
            The SGQ to answer.
        on_infeasible:
            ``"return"`` (default) yields an infeasible :class:`GroupResult`;
            ``"raise"`` raises :class:`InfeasibleQueryError` instead.
        allowed_candidates:
            Optional restriction of the candidate pool (the initiator is
            always allowed).  Social distances are still measured on the full
            graph; only group membership is restricted.  This is how the
            per-period STGQ baseline reuses SGSelect without perturbing the
            distance semantics.
        feasible_graph:
            Optional pre-extracted feasible graph for
            ``(query.initiator, query.radius)``.  The caller guarantees the
            correspondence; :class:`~repro.service.QueryService` uses this to
            amortise extraction across queries sharing an ego network.
        compiled_graph:
            Optional pre-compiled bitmask form of ``feasible_graph`` (full
            candidate pool).  Ignored when ``allowed_candidates`` restricts
            the pool or the reference kernel is selected.
        context:
            Optional :class:`~repro.core.context.SearchContext` this solve's
            kernel statistics are recorded into (in addition to the returned
            result).  The service layer passes its per-batch
            ``ExecutionContext`` here, so batch-scoped accounting needs no
            solver-global state.
        """
        start = time.perf_counter()
        stats = SearchStats()

        if feasible_graph is None:
            # A caller-supplied compilation is only trusted together with the
            # feasible graph it was built from.  On a CSR graph
            # extract_query_forms derives both forms in one pass.
            feasible_graph, compiled_graph = extract_query_forms(
                self.graph, query.initiator, query.radius, self.parameters.kernel
            )
        result = self._search(
            feasible_graph,
            query,
            stats,
            incumbent=math.inf,
            allowed_candidates=allowed_candidates,
            compiled_graph=compiled_graph,
        )
        stats.elapsed_seconds = time.perf_counter() - start
        record_into(context, stats)

        if result is None:
            final = GroupResult.infeasible(solver="SGSelect", stats=stats)
            if on_infeasible == "raise":
                raise InfeasibleQueryError(f"no feasible group for {query.describe()}")
            return final
        members, total = result
        return GroupResult(
            feasible=True,
            members=frozenset(members),
            total_distance=total,
            solver="SGSelect",
            stats=stats,
        )

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search(
        self,
        feasible_graph: FeasibleGraph,
        query: SGQuery,
        stats: SearchStats,
        incumbent: float,
        allowed_candidates: Optional[Set[Vertex]] = None,
        compiled_graph: Optional[CompiledFeasibleGraph] = None,
    ) -> Optional[Tuple[Set[Vertex], float]]:
        """Run the branch-and-bound over the feasible graph.

        Returns the optimal ``(members, total_distance)`` or ``None`` when no
        feasible group exists.  ``incumbent`` seeds the distance-pruning bound
        (used by STGSelect to share the bound across pivot slots).
        """
        q = query.initiator
        p = query.group_size
        if p == 1:
            return {q}, 0.0
        candidates = feasible_graph.candidates
        if allowed_candidates is not None:
            candidates = [v for v in candidates if v in allowed_candidates]
            # A restricted pool invalidates a full-pool compilation.
            compiled_graph = None
        if len(candidates) < p - 1:
            return None

        best: Dict[str, object] = {"distance": incumbent, "members": None}

        def record(members, total: float) -> None:
            """Single incumbent-update path shared by both kernels."""
            if total < best["distance"]:  # type: ignore[operator]
                best["distance"] = total
                best["members"] = set(members)
                stats.solutions_found += 1

        if self.parameters.kernel != "reference":
            compiled = compiled_graph or compile_feasible_graph(feasible_graph, candidates)
            self._expand_bitset(
                compiled=compiled,
                query=query,
                members_mask=1,
                member_ids=[0],
                strangers=[0] * len(compiled),
                remaining_mask=compiled.candidate_mask,
                current_distance=0.0,
                record=record,
                best=best,
                stats=stats,
            )
        else:
            self._expand(
                graph=feasible_graph.graph,
                distances=feasible_graph.distances,
                query=query,
                members=[q],
                members_set={q},
                remaining=list(candidates),
                current_distance=0.0,
                record=record,
                best=best,
                stats=stats,
            )

        if best["members"] is None:
            return None
        return best["members"], float(best["distance"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # compiled kernel
    # ------------------------------------------------------------------
    def _expand_bitset(
        self,
        compiled: CompiledFeasibleGraph,
        query: SGQuery,
        members_mask: int,
        member_ids: List[int],
        strangers: List[int],
        remaining_mask: int,
        current_distance: float,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        """Explore one node of the set-enumeration tree (bitset state).

        ``strangers[v]`` holds ``|VS - {v} - N_v|`` for every id in
        ``member_ids`` and is maintained incrementally around the include
        branch instead of being recomputed per candidate.
        """
        params = self.parameters
        p = query.group_size
        k = query.acquaintance
        adj = compiled.adj
        dist = compiled.dist
        stats.nodes_expanded += 1

        theta = params.theta if params.use_access_ordering else 0
        deferred_mask = 0
        members_count = len(member_ids)

        while True:
            if members_count == p:
                record(compiled.members_of(members_mask), current_distance)
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

            # --- candidate selection (access ordering) ----------------
            selected = -1
            while selected < 0:
                open_mask = remaining_mask & ~deferred_mask
                if not open_mask:
                    if theta > 0:
                        theta -= 1
                        deferred_mask = 0
                        continue
                    # θ exhausted and every remaining candidate deferred or
                    # removed: nothing left to branch on at this node.
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
                selected = candidate

            # --- branch 1: include ``selected`` -----------------------
            sel_bit = 1 << selected
            sel_adj = adj[selected]
            strangers[selected] = (members_mask & ~sel_adj).bit_count()
            for v in member_ids:
                if not sel_adj >> v & 1:
                    strangers[v] += 1
            member_ids.append(selected)
            self._expand_bitset(
                compiled=compiled,
                query=query,
                members_mask=members_mask | sel_bit,
                member_ids=member_ids,
                strangers=strangers,
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
    # reference kernel
    # ------------------------------------------------------------------
    def _expand(
        self,
        graph: SocialGraph,
        distances,
        query: SGQuery,
        members: List[Vertex],
        members_set: Set[Vertex],
        remaining: List[Vertex],
        current_distance: float,
        record: RecordFn,
        best: Dict[str, object],
        stats: SearchStats,
    ) -> None:
        """Explore one node of the set-enumeration tree (reference state)."""
        params = self.parameters
        p = query.group_size
        k = query.acquaintance
        stats.nodes_expanded += 1

        # ``remaining`` is owned by this node (each recursion copies it), so
        # in-place removal is safe and keeps the exclude branch cheap.
        theta = params.theta if params.use_access_ordering else 0
        deferred: Set[Vertex] = set()

        while True:
            if len(members_set) == p:
                record(members_set, current_distance)
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

            # --- candidate selection (access ordering) ----------------
            selected = None
            while selected is None:
                candidate = self._next_unvisited(remaining, deferred, distances)
                if candidate is None:
                    if theta > 0:
                        theta -= 1
                        deferred.clear()
                        continue
                    # θ exhausted and every remaining candidate deferred or
                    # removed: nothing left to branch on at this node.
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
                selected = candidate

            # --- branch 1: include ``selected`` -----------------------
            child_remaining = [v for v in remaining if v != selected]
            members.append(selected)
            members_set.add(selected)
            self._expand(
                graph=graph,
                distances=distances,
                query=query,
                members=members,
                members_set=members_set,
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


def sg_select(
    graph: SocialGraph,
    initiator: Vertex,
    group_size: int,
    radius: int,
    acquaintance: int,
    parameters: Optional[SearchParameters] = None,
) -> GroupResult:
    """Convenience wrapper: build the query and run :class:`SGSelect` once."""
    query = SGQuery(
        initiator=initiator, group_size=group_size, radius=radius, acquaintance=acquaintance
    )
    return SGSelect(graph, parameters).solve(query)
