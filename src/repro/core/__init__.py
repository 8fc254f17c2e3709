"""Core algorithms of the reproduction: query model, SGSelect, STGSelect,
baselines, the Integer Programming formulation, and the quality-comparison
heuristics (PCArrange / STGArrange).

Every solver has one calling convention: construct it from the graph (plus
the calendars and :class:`SearchParameters` where it takes them), pass a
query object to ``solve`` (``solve_sgq`` / ``solve_stgq`` for
:class:`IPSolver`), and get a result back whether or not a group exists —
an infeasible query is a result with ``feasible=False``, not an exception::

    result = SGSelect(graph).solve(SGQuery(initiator=0, group_size=4, radius=1, acquaintance=1))

:class:`ActivityPlanner` is the one entry point by keyword and algorithm
name: ``planner.find_group(initiator=0, group_size=4, algorithm="ip")``.
"""

from .baseline import BaselineSGQ, BaselineSTGQ
from .context import SearchContext
from .constraints import (
    ConstraintReport,
    check_sg_solution,
    check_stg_solution,
    group_total_distance,
    observed_acquaintance,
)
from .heuristics import GreedySGQ, GreedySTGQ
from .ip import IPSolver
from .ordering import (
    exterior_expansibility,
    exterior_expansibility_condition,
    interior_unfamiliarity,
    interior_unfamiliarity_condition,
    temporal_extensibility,
    temporal_extensibility_condition,
)
from .pcarrange import PCArrange
from .planner import ActivityPlanner
from .pruning import acquaintance_pruning, availability_pruning, distance_pruning
from .query import VALID_KERNELS, SGQuery, STGQuery, SearchParameters
from .result import GroupResult, STGroupResult, SearchStats
from .sgselect import SGSelect
from .stgarrange import STGArrange, STGArrangeOutcome
from .stgselect import STGSelect

__all__ = [
    "SGQuery",
    "STGQuery",
    "SearchParameters",
    "VALID_KERNELS",
    "GroupResult",
    "STGroupResult",
    "SearchStats",
    "SearchContext",
    "SGSelect",
    "STGSelect",
    "BaselineSGQ",
    "BaselineSTGQ",
    "IPSolver",
    "GreedySGQ",
    "GreedySTGQ",
    "PCArrange",
    "STGArrange",
    "STGArrangeOutcome",
    "ActivityPlanner",
    "ConstraintReport",
    "check_sg_solution",
    "check_stg_solution",
    "group_total_distance",
    "observed_acquaintance",
    "interior_unfamiliarity",
    "exterior_expansibility",
    "temporal_extensibility",
    "interior_unfamiliarity_condition",
    "exterior_expansibility_condition",
    "temporal_extensibility_condition",
    "distance_pruning",
    "acquaintance_pruning",
    "availability_pruning",
]
