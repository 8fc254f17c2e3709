"""repro — reproduction of "On Social-Temporal Group Query with Acquaintance
Constraint" (Yang, Chen, Lee, Chen; PVLDB 4(6), 2011).

The package provides:

* :mod:`repro.graph` — the weighted social-graph substrate (bounded
  distances, radius extraction, generators, k-plex utilities),
* :mod:`repro.temporal` — the scheduling substrate (slots, schedules,
  calendar store, pivot time slots),
* :mod:`repro.core` — the paper's algorithms: SGSelect, STGSelect, the
  brute-force baselines, the Integer Programming model, and the
  PCArrange/STGArrange quality comparison, all behind the high-level
  :class:`~repro.core.planner.ActivityPlanner`,
* :mod:`repro.datasets` — the paper's worked examples and synthetic
  stand-ins for its datasets,
* :mod:`repro.experiments` — runners that regenerate every panel of the
  paper's Figure 1.

Quickstart::

    from repro import ActivityPlanner
    from repro.datasets import generate_real_dataset

    dataset = generate_real_dataset()
    planner = ActivityPlanner(dataset.graph, dataset.calendars)
    result = planner.find_group_and_time(
        initiator=0, group_size=5, activity_length=4, radius=2, acquaintance=1
    )
    print(result.sorted_members(), result.period)

A solver is called one of two ways: build its class from the graph (and
calendars) and pass a query object, e.g.
``SGSelect(graph).solve(SGQuery(...))``, or go through the planner by
keyword and algorithm name, e.g. ``planner.find_group(..., algorithm="ip")``.
Both return a result object, with ``feasible=False`` when no group exists.
"""

from .core import (
    ActivityPlanner,
    BaselineSGQ,
    BaselineSTGQ,
    GroupResult,
    IPSolver,
    PCArrange,
    SearchParameters,
    SGQuery,
    SGSelect,
    STGArrange,
    STGroupResult,
    STGQuery,
    STGSelect,
)
from .exceptions import (
    DatasetError,
    GraphError,
    QueryError,
    ReproError,
    ScheduleError,
    SolverError,
)
from .graph import SocialGraph
from .service import QueryService, ServiceStats
from .temporal import CalendarStore, Schedule, SlotRange

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ActivityPlanner",
    "SocialGraph",
    "Schedule",
    "CalendarStore",
    "SlotRange",
    "SGQuery",
    "STGQuery",
    "SearchParameters",
    "GroupResult",
    "STGroupResult",
    "SGSelect",
    "STGSelect",
    "QueryService",
    "ServiceStats",
    "BaselineSGQ",
    "BaselineSTGQ",
    "IPSolver",
    "PCArrange",
    "STGArrange",
    "ReproError",
    "GraphError",
    "ScheduleError",
    "QueryError",
    "SolverError",
    "DatasetError",
]
