"""MILP backend built on ``scipy.optimize.milp`` (HiGHS).

The paper solved its Appendix-D model with CPLEX.  CPLEX is proprietary and
unavailable here, so the reproduction substitutes the open-source HiGHS
solver shipped with SciPy; the comparison role ("a general-purpose IP
optimizer solving the same model") is preserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ...exceptions import SolverError
from .model import MILPModel

__all__ = ["MILPSolution", "solve_with_scipy"]


@dataclass(frozen=True)
class MILPSolution:
    """Solution of a :class:`~repro.core.ip.model.MILPModel`.

    Attributes
    ----------
    status:
        ``"optimal"`` or ``"infeasible"``; any other outcome of the solve
        raises :class:`~repro.exceptions.SolverError` instead.
    objective:
        Objective value (``math.inf`` when not optimal).
    values:
        Variable values indexed like the model's variables (empty when not
        optimal).
    message:
        Backend-specific status message.
    """

    status: str
    objective: float
    values: List[float]
    message: str = ""

    @property
    def optimal(self) -> bool:
        """``True`` when an optimal solution was found."""
        return self.status == "optimal"

    def value_of(self, index: int) -> float:
        """Value of variable ``index`` (0.0 when not optimal)."""
        if not self.optimal:
            return 0.0
        return self.values[index]


def solve_with_scipy(model: MILPModel) -> MILPSolution:
    """Solve ``model`` with ``scipy.optimize.milp``.

    Raises :class:`~repro.exceptions.SolverError`, carrying HiGHS's message,
    when the solve ends neither optimal nor proven infeasible (an iteration
    or time limit, an unbounded model, a numerical failure): such a stop
    says nothing about whether a feasible group exists.
    """
    try:  # numpy arrives with scipy; both load on the first solve.
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_matrix
    except ImportError as exc:  # pragma: no cover - scipy is a hard dependency
        raise SolverError("scipy is required for the MILP backend") from exc

    n = model.num_vars
    if n == 0:
        return MILPSolution(status="optimal", objective=0.0, values=[], message="empty model")

    c = np.asarray(model.objective, dtype=float)
    integrality = np.asarray(model.integrality, dtype=int)
    bounds = Bounds(np.asarray(model.lower_bounds, dtype=float), np.asarray(model.upper_bounds, dtype=float))

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    for i, spec in enumerate(model.constraints):
        for j, coef in spec.coeffs.items():
            rows.append(i)
            cols.append(j)
            data.append(coef)
        lower.append(spec.lower)
        upper.append(spec.upper)

    constraints = None
    if model.constraints:
        matrix = csr_matrix((data, (rows, cols)), shape=(len(model.constraints), n))
        constraints = LinearConstraint(matrix, np.asarray(lower), np.asarray(upper))

    result = milp(c=c, constraints=constraints, integrality=integrality, bounds=bounds)

    if result.status == 0 and result.x is not None:
        return MILPSolution(
            status="optimal",
            objective=float(result.fun),
            values=[float(x) for x in result.x],
            message=str(result.message),
        )
    if result.status == 2:
        return MILPSolution(status="infeasible", objective=math.inf, values=[], message=str(result.message))
    raise SolverError(f"HiGHS stopped without an answer (status {result.status}): {result.message}")
