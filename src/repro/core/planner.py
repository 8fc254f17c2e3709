"""ActivityPlanner — the high-level user-facing API.

The paper motivates SGQ/STGQ as a value-added activity-planning service for
social networking sites and calendar tools.  :class:`ActivityPlanner` is that
service in library form: construct it once from a social graph and a
calendar store, then issue queries with plain keyword arguments.  Every
solver implemented in the package is reachable through the ``algorithm``
parameter so applications can trade optimality guarantees for speed.
"""

from __future__ import annotations

from typing import Optional, Union

from ..exceptions import QueryError
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..types import Vertex
from .baseline import BaselineSGQ, BaselineSTGQ
from .constraints import ConstraintReport, check_sg_solution, check_stg_solution
from .heuristics import GreedySGQ, GreedySTGQ
from .ip.solver import IPSolver
from .pcarrange import PCArrange
from .query import SGQuery, STGQuery, SearchParameters
from .result import GroupResult, STGroupResult
from .sgselect import SGSelect
from .stgselect import STGSelect

__all__ = ["ActivityPlanner"]

_SG_ALGORITHMS = ("sgselect", "baseline", "ip", "greedy")
_STG_ALGORITHMS = ("stgselect", "baseline", "ip", "pcarrange", "greedy")


class ActivityPlanner:
    """Plan activities over a social graph and (optionally) a calendar store.

    The planner is one of the package's two calling conventions: keywords
    plus an algorithm name.  The other builds a solver class and hands it a
    query object, e.g. ``SGSelect(graph).solve(SGQuery(...))``, which is
    what each planner method does.  Both return a result object, with
    ``feasible=False`` when no group exists.

    Parameters
    ----------
    graph:
        The social graph; edge weights are social distances.
    calendars:
        Availability schedules.  Required for temporal queries
        (:meth:`find_group_and_time`); purely social queries
        (:meth:`find_group`) work without it.
    parameters:
        Search tunables forwarded to SGSelect / STGSelect.

    Examples
    --------
    >>> from repro.datasets import load_toy_example
    >>> dataset = load_toy_example()
    >>> planner = ActivityPlanner(dataset.graph, dataset.calendars)
    >>> result = planner.find_group(initiator="v7", group_size=4, radius=1, acquaintance=1)
    >>> result.total_distance
    62.0
    """

    def __init__(
        self,
        graph: SocialGraph,
        calendars: Optional[CalendarStore] = None,
        parameters: Optional[SearchParameters] = None,
    ) -> None:
        self.graph = graph
        self.calendars = calendars
        self.parameters = parameters or SearchParameters()

    # ------------------------------------------------------------------
    # social group query
    # ------------------------------------------------------------------
    def find_group(
        self,
        initiator: Vertex,
        group_size: int,
        radius: int = 1,
        acquaintance: int = 0,
        algorithm: str = "sgselect",
    ) -> GroupResult:
        """Answer an SGQ: the optimal group of ``group_size`` attendees.

        ``algorithm`` is one of ``"sgselect"`` (default, exact branch and
        bound), ``"baseline"`` (exhaustive enumeration), ``"ip"`` (the
        Integer Programming model) or ``"greedy"`` (fast approximate answer
        for very large ego networks).
        """
        if algorithm not in _SG_ALGORITHMS:
            raise QueryError(f"unknown SGQ algorithm {algorithm!r}; choose from {_SG_ALGORITHMS}")
        query = SGQuery(
            initiator=initiator,
            group_size=group_size,
            radius=radius,
            acquaintance=acquaintance,
        )
        if algorithm == "sgselect":
            return SGSelect(self.graph, self.parameters).solve(query)
        if algorithm == "baseline":
            return BaselineSGQ(self.graph).solve(query)
        if algorithm == "greedy":
            return GreedySGQ(self.graph).solve(query)
        return IPSolver().solve_sgq(self.graph, query)

    # ------------------------------------------------------------------
    # social-temporal group query
    # ------------------------------------------------------------------
    def find_group_and_time(
        self,
        initiator: Vertex,
        group_size: int,
        activity_length: int,
        radius: int = 1,
        acquaintance: int = 0,
        algorithm: str = "stgselect",
    ) -> STGroupResult:
        """Answer an STGQ: the optimal group plus an activity period.

        ``algorithm`` is one of ``"stgselect"`` (default), ``"baseline"``
        (per-period enumeration), ``"ip"``, ``"pcarrange"`` (the manual
        coordination heuristic; ignores the acquaintance constraint) or
        ``"greedy"`` (fast approximate answer).
        """
        if self.calendars is None:
            raise QueryError("a CalendarStore is required for social-temporal queries")
        if algorithm not in _STG_ALGORITHMS:
            raise QueryError(
                f"unknown STGQ algorithm {algorithm!r}; choose from {_STG_ALGORITHMS}"
            )
        query = STGQuery(
            initiator=initiator,
            group_size=group_size,
            radius=radius,
            acquaintance=acquaintance,
            activity_length=activity_length,
        )
        if algorithm == "stgselect":
            return STGSelect(self.graph, self.calendars, self.parameters).solve(query)
        if algorithm == "baseline":
            return BaselineSTGQ(self.graph, self.calendars, parameters=self.parameters).solve(query)
        if algorithm == "pcarrange":
            return PCArrange(self.graph, self.calendars).solve(query)
        if algorithm == "greedy":
            return GreedySTGQ(self.graph, self.calendars).solve(query)
        return IPSolver().solve_stgq(self.graph, self.calendars, query)

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def verify(
        self,
        query: Union[SGQuery, STGQuery],
        result: Union[GroupResult, STGroupResult],
    ) -> ConstraintReport:
        """Independently verify a result against the graph and calendars."""
        if isinstance(query, STGQuery):
            if self.calendars is None:
                raise QueryError("a CalendarStore is required to verify temporal results")
            period = result.period if isinstance(result, STGroupResult) else None
            return check_stg_solution(self.graph, self.calendars, query, result.members, period)
        return check_sg_solution(self.graph, query, result.members)
