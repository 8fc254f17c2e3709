"""SGSelect — exact branch-and-bound algorithm for Social Group Queries
(paper §3.2).

An SGQ is one run of the branch-and-bound skeleton in
:mod:`repro.core.search`, with no pivot hook.  This module extracts the
feasible graph, answers ``p = 1`` directly, applies the optional
``allowed_candidates`` restriction to the candidate pool, and hands the pool
to the kernel ``SearchParameters.kernel`` selects: a bitmask over dense ids
for :class:`~repro.core.search.BitsetSearch` (``"compiled"``) or a vertex
list for :class:`~repro.core.search.ReferenceSearch` (``"reference"``).

The solver reports rich :class:`~repro.core.result.SearchStats` so the
experiment harness can attribute speed-ups to individual strategies.
"""

from __future__ import annotations

import time
from typing import Optional, Set, Tuple

from ..exceptions import InfeasibleQueryError
from .context import SearchContext, record_into
from ..graph.compiled import CompiledFeasibleGraph, compile_feasible_graph
from ..graph.extraction import FeasibleGraph, extract_query_forms
from ..graph.social_graph import SocialGraph
from ..types import Vertex
from .query import SearchParameters, SGQuery
from .result import GroupResult, SearchStats
from .search import BitsetSearch, Incumbent, ReferenceSearch

__all__ = ["SGSelect", "sg_select"]


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
        allowed_candidates: Optional[Set[Vertex]] = None,
        compiled_graph: Optional[CompiledFeasibleGraph] = None,
    ) -> Optional[Tuple[Set[Vertex], float]]:
        """Run the branch-and-bound over the feasible graph.

        Returns the optimal ``(members, total_distance)`` or ``None`` when no
        feasible group exists.
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

        incumbent = Incumbent(stats)
        if self.parameters.kernel != "reference":
            compiled = compiled_graph or compile_feasible_graph(feasible_graph, candidates)
            search = BitsetSearch(query, self.parameters, incumbent, stats)
            search.run(compiled, compiled.candidate_mask)
        else:
            search = ReferenceSearch(query, self.parameters, incumbent, stats)
            search.run(feasible_graph, candidates)

        if incumbent.members is None:
            return None
        return incumbent.members, float(incumbent.distance)


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
