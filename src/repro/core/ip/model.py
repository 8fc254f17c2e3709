"""Integer Programming formulation of STGQ / SGQ (paper Appendix D).

The paper formulates STGQ as an Integer Program and solves it with CPLEX as
one of the comparison points in Figures 1(a) and 1(d).  This module builds
the same model over a generic MILP description (:class:`MILPModel`) that the
HiGHS backend in :mod:`repro.core.ip.scipy_backend` solves.

Two formulations are provided:

* ``"full"`` — the verbatim Appendix-D model with per-attendee path (flow)
  variables ``pi_{u,i,j}`` and distance variables ``delta_u``; constraints
  (1)–(10) are reproduced one-to-one.  Its size grows as
  ``O(|V| * |E| + |V| * T)``, so it is practical only for small feasible
  graphs — exactly the regime in which the paper reports IP being slower
  than SGSelect.
* ``"compact"`` — an equivalent model that exploits the fact that the
  ``s``-edge-bounded distances ``d_{u,q}`` can be precomputed in polynomial
  time: binary selection variables only, objective ``sum_u d_u phi_u``,
  constraints (1), (2), (3), (9), (10).  Used when the caller just wants the
  optimal answer from a MILP solver quickly.

Both produce optimal solutions; the test-suite cross-checks them against
each other and against SGSelect / STGSelect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ...exceptions import SolverError
from ...graph.extraction import FeasibleGraph, extract_feasible_graph
from ...graph.social_graph import SocialGraph
from ...temporal.calendars import CalendarStore
from ...types import Vertex
from ..query import SGQuery, STGQuery

__all__ = ["LinearConstraintSpec", "MILPModel", "build_sgq_model", "build_stgq_model"]


@dataclass(frozen=True)
class LinearConstraintSpec:
    """One linear constraint ``lb <= sum_j coeffs[j] * x_j <= ub``."""

    coeffs: Mapping[int, float]
    lower: float
    upper: float
    name: str = ""


@dataclass
class MILPModel:
    """A mixed-integer linear program in generic form.

    Variables are indexed ``0 .. num_vars - 1``; ``integrality[j]`` is 1 for
    integer (here: binary) variables and 0 for continuous ones.  The
    objective is always minimised.
    """

    objective: List[float] = field(default_factory=list)
    integrality: List[int] = field(default_factory=list)
    lower_bounds: List[float] = field(default_factory=list)
    upper_bounds: List[float] = field(default_factory=list)
    constraints: List[LinearConstraintSpec] = field(default_factory=list)
    variable_names: List[str] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        """Number of decision variables."""
        return len(self.objective)

    @property
    def num_constraints(self) -> int:
        """Number of linear constraints."""
        return len(self.constraints)

    def add_variable(
        self,
        name: str,
        cost: float = 0.0,
        is_integer: bool = True,
        lower: float = 0.0,
        upper: float = 1.0,
    ) -> int:
        """Add a variable and return its index."""
        self.objective.append(float(cost))
        self.integrality.append(1 if is_integer else 0)
        self.lower_bounds.append(float(lower))
        self.upper_bounds.append(float(upper))
        self.variable_names.append(name)
        return len(self.objective) - 1

    def add_constraint(
        self,
        coeffs: Mapping[int, float],
        lower: float = -math.inf,
        upper: float = math.inf,
        name: str = "",
    ) -> None:
        """Add a linear constraint with the given bounds."""
        if lower == -math.inf and upper == math.inf:
            raise SolverError(f"constraint {name!r} has no finite bound")
        self.constraints.append(
            LinearConstraintSpec(coeffs=dict(coeffs), lower=lower, upper=upper, name=name)
        )

    def variable_index(self, name: str) -> int:
        """Look up a variable index by name (linear scan; intended for tests)."""
        try:
            return self.variable_names.index(name)
        except ValueError:
            raise SolverError(f"unknown variable {name!r}") from None


# ----------------------------------------------------------------------
# model builders
# ----------------------------------------------------------------------
def build_sgq_model(
    graph: SocialGraph,
    query: SGQuery,
    formulation: str = "compact",
) -> MILPModel:
    """Build the IP model for an SGQ (no temporal constraints).

    Equivalent to the STGQ model with constraints (9) and (10) discarded, as
    described in Appendix D.
    """
    return _build_model(graph, query, calendars=None, activity_length=None, formulation=formulation)


def build_stgq_model(
    graph: SocialGraph,
    calendars: CalendarStore,
    query: STGQuery,
    formulation: str = "compact",
) -> MILPModel:
    """Build the IP model for an STGQ including the availability constraints."""
    return _build_model(
        graph,
        query.social_part(),
        calendars=calendars,
        activity_length=query.activity_length,
        formulation=formulation,
    )


def _build_model(
    graph: SocialGraph,
    sg_query: SGQuery,
    calendars: Optional[CalendarStore],
    activity_length: Optional[int],
    formulation: str,
) -> MILPModel:
    if formulation not in ("compact", "full"):
        raise SolverError(f"formulation must be 'compact' or 'full', got {formulation!r}")

    feasible = extract_feasible_graph(graph, sg_query.initiator, sg_query.radius)
    model = MILPModel()
    model.metadata["formulation"] = formulation
    model.metadata["initiator"] = sg_query.initiator
    model.metadata["vertices"] = list(feasible.graph.vertices())

    phi = _add_selection_variables(model, feasible, formulation)
    _add_group_constraints(model, feasible, sg_query, phi)
    if formulation == "full":
        _add_path_constraints(model, feasible, sg_query, phi)
    if calendars is not None and activity_length is not None:
        _add_temporal_constraints(model, feasible, calendars, activity_length, phi)
    return model


def _add_selection_variables(
    model: MILPModel, feasible: FeasibleGraph, formulation: str
) -> Dict[Vertex, int]:
    """Create the binary selection variable ``phi_u`` for every feasible vertex.

    In the compact formulation the precomputed distance is the objective
    coefficient; in the full formulation the objective lives on the
    ``delta_u`` variables added later.
    """
    phi: Dict[Vertex, int] = {}
    for u in feasible.graph.vertices():
        cost = feasible.distances[u] if formulation == "compact" else 0.0
        phi[u] = model.add_variable(f"phi[{u!r}]", cost=cost, is_integer=True)
    model.metadata["phi"] = phi
    return phi


def _add_group_constraints(
    model: MILPModel, feasible: FeasibleGraph, query: SGQuery, phi: Dict[Vertex, int]
) -> None:
    """Constraints (1)-(3): group size, initiator membership, acquaintance."""
    q = query.initiator
    p = query.group_size
    k = query.acquaintance
    graph = feasible.graph

    # (1) exactly p attendees
    model.add_constraint({idx: 1.0 for idx in phi.values()}, lower=p, upper=p, name="group-size")
    # (2) the initiator attends
    model.add_constraint({phi[q]: 1.0}, lower=1.0, upper=1.0, name="initiator")
    # (3) acquaintance: sum_{v in N_u} phi_v >= (p - 1) phi_u - k for every u
    for u in graph.vertices():
        coeffs: Dict[int, float] = {}
        for v in graph.neighbors(u):
            coeffs[phi[v]] = coeffs.get(phi[v], 0.0) + 1.0
        coeffs[phi[u]] = coeffs.get(phi[u], 0.0) - (p - 1)
        model.add_constraint(coeffs, lower=-float(k), upper=math.inf, name=f"acquaintance[{u!r}]")


def _add_path_constraints(
    model: MILPModel, feasible: FeasibleGraph, query: SGQuery, phi: Dict[Vertex, int]
) -> None:
    """Constraints (4)-(8) of the full formulation: per-attendee shortest paths.

    For every candidate ``u != q`` a unit of flow is routed from ``q`` to
    ``u`` over directed copies of the feasible graph's edges whenever
    ``phi_u = 1``; the flow's total length defines ``delta_u`` and the
    objective minimises it, so the chosen path is a shortest path with at
    most ``s`` edges.
    """
    q = query.initiator
    s = query.radius
    graph = feasible.graph
    vertices = graph.vertices()
    undirected = graph.edges()
    directed: List[Tuple[Vertex, Vertex, float]] = []
    for a, b, c in undirected:
        directed.append((a, b, c))
        directed.append((b, a, c))

    for u in vertices:
        if u == q:
            continue
        # delta_u >= 0, continuous, coefficient 1 in the objective.
        delta_idx = model.add_variable(
            f"delta[{u!r}]", cost=1.0, is_integer=False, lower=0.0, upper=math.inf
        )
        pi: Dict[Tuple[Vertex, Vertex], int] = {}
        for i, j, _c in directed:
            pi[(i, j)] = model.add_variable(f"pi[{u!r}][{i!r}->{j!r}]", cost=0.0, is_integer=True)

        # (4) flow leaves q iff u is selected
        coeffs = {pi[(q, j)]: 1.0 for j in graph.neighbors(q)}
        coeffs[phi[u]] = coeffs.get(phi[u], 0.0) - 1.0
        model.add_constraint(coeffs, lower=0.0, upper=0.0, name=f"flow-out-q[{u!r}]")

        # (5) flow enters u iff u is selected
        coeffs = {pi[(i, u)]: 1.0 for i in graph.neighbors(u)}
        coeffs[phi[u]] = coeffs.get(phi[u], 0.0) - 1.0
        model.add_constraint(coeffs, lower=0.0, upper=0.0, name=f"flow-in-u[{u!r}]")

        # (6) conservation at every other vertex
        for j in vertices:
            if j in (q, u):
                continue
            coeffs = {}
            for i in graph.neighbors(j):
                coeffs[pi[(i, j)]] = coeffs.get(pi[(i, j)], 0.0) + 1.0
                coeffs[pi[(j, i)]] = coeffs.get(pi[(j, i)], 0.0) - 1.0
            if coeffs:
                model.add_constraint(coeffs, lower=0.0, upper=0.0, name=f"flow-cons[{u!r}][{j!r}]")

        # (7) delta_u equals the length of the selected path
        coeffs = {pi[(i, j)]: c for (i, j, c) in directed}
        coeffs[delta_idx] = -1.0
        model.add_constraint(coeffs, lower=0.0, upper=0.0, name=f"distance[{u!r}]")

        # (8) the path uses at most s edges
        coeffs = {idx: 1.0 for idx in pi.values()}
        model.add_constraint(coeffs, lower=-math.inf, upper=float(s), name=f"radius[{u!r}]")


def _add_temporal_constraints(
    model: MILPModel,
    feasible: FeasibleGraph,
    calendars: CalendarStore,
    activity_length: int,
    phi: Dict[Vertex, int],
) -> None:
    """Constraints (9)-(10): activity start slot and per-attendee availability."""
    horizon = calendars.horizon
    m = activity_length
    if m > horizon:
        raise SolverError(f"activity length {m} exceeds the planning horizon {horizon}")

    tau: Dict[int, int] = {}
    for t in range(1, horizon - m + 2):
        tau[t] = model.add_variable(f"tau[{t}]", cost=0.0, is_integer=True)
    model.metadata["tau"] = tau

    # (9) exactly one start slot
    model.add_constraint({idx: 1.0 for idx in tau.values()}, lower=1.0, upper=1.0, name="start-slot")

    # (10) phi_u <= 1 - tau_t + a_{u, t_hat} for every attendee, start slot and
    # slot of the activity period; only binding when a_{u, t_hat} = 0.
    for u, phi_idx in phi.items():
        schedule = calendars.get(u)
        for t, tau_idx in tau.items():
            for t_hat in range(t, t + m):
                if schedule.is_available(t_hat):
                    continue
                model.add_constraint(
                    {phi_idx: 1.0, tau_idx: 1.0},
                    lower=-math.inf,
                    upper=1.0,
                    name=f"availability[{u!r}][{t}][{t_hat}]",
                )
