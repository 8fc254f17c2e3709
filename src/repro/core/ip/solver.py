"""High-level IP solver for SGQ and STGQ.

:class:`IPSolver` wraps the model builders and the HiGHS MILP backend into
the same result types the combinatorial algorithms return, so the experiment
harness and tests can treat "IP" as just another solver (as the paper's
Figures 1(a) and 1(d) do).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ...graph.social_graph import SocialGraph
from ...temporal.calendars import CalendarStore
from ...temporal.slots import SlotRange
from ...types import Vertex
from ..query import SGQuery, STGQuery
from ..result import GroupResult, STGroupResult, SearchStats
from .model import MILPModel, build_sgq_model, build_stgq_model
from .scipy_backend import MILPSolution, solve_with_scipy

__all__ = ["IPSolver"]

_SELECTION_TOL = 0.5


class IPSolver:
    """Solve SGQ / STGQ through the Integer Programming formulation.

    The model is solved by HiGHS through ``scipy.optimize.milp``
    (:func:`~repro.core.ip.scipy_backend.solve_with_scipy`); a solve that
    stops without proving optimality or infeasibility raises
    :class:`~repro.exceptions.SolverError`.

    Parameters
    ----------
    formulation:
        ``"compact"`` (default) or ``"full"`` — see
        :mod:`repro.core.ip.model`.
    """

    def __init__(self, formulation: str = "compact") -> None:
        self.formulation = formulation
        self.solver_name = f"IP({formulation},scipy)"

    # ------------------------------------------------------------------
    def solve_sgq(self, graph: SocialGraph, query: SGQuery) -> GroupResult:
        """Answer an SGQ through the IP model."""
        start = time.perf_counter()
        model = build_sgq_model(graph, query, formulation=self.formulation)
        solution = solve_with_scipy(model)
        stats = SearchStats(elapsed_seconds=time.perf_counter() - start)
        if not solution.optimal:
            return GroupResult.infeasible(solver=self.solver_name, stats=stats)
        members = self._selected_members(model, solution)
        return GroupResult(
            feasible=True,
            members=frozenset(members),
            total_distance=float(solution.objective),
            solver=self.solver_name,
            stats=stats,
        )

    def solve_stgq(
        self, graph: SocialGraph, calendars: CalendarStore, query: STGQuery
    ) -> STGroupResult:
        """Answer an STGQ through the IP model."""
        start = time.perf_counter()
        model = build_stgq_model(graph, calendars, query, formulation=self.formulation)
        solution = solve_with_scipy(model)
        stats = SearchStats(elapsed_seconds=time.perf_counter() - start)
        if not solution.optimal:
            return STGroupResult.infeasible(solver=self.solver_name, stats=stats)
        members = self._selected_members(model, solution)
        period = self._selected_period(model, solution, query.activity_length)
        return STGroupResult(
            feasible=True,
            members=frozenset(members),
            total_distance=float(solution.objective),
            period=period,
            pivot=None,
            shared_slots=period,
            solver=self.solver_name,
            stats=stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _selected_members(model: MILPModel, solution: MILPSolution):
        phi: Dict[Vertex, int] = model.metadata["phi"]  # type: ignore[assignment]
        return [u for u, idx in phi.items() if solution.value_of(idx) > _SELECTION_TOL]

    @staticmethod
    def _selected_period(
        model: MILPModel, solution: MILPSolution, activity_length: int
    ) -> Optional[SlotRange]:
        tau: Dict[int, int] = model.metadata.get("tau", {})  # type: ignore[assignment]
        for t, idx in tau.items():
            if solution.value_of(idx) > _SELECTION_TOL:
                return SlotRange(t, t + activity_length - 1)
        return None
