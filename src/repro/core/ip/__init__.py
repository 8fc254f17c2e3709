"""Integer Programming formulation of SGQ/STGQ (paper Appendix D) and the
HiGHS MILP backend that solves it."""

from .model import LinearConstraintSpec, MILPModel, build_sgq_model, build_stgq_model
from .scipy_backend import MILPSolution, solve_with_scipy
from .solver import IPSolver

__all__ = [
    "MILPModel",
    "LinearConstraintSpec",
    "MILPSolution",
    "build_sgq_model",
    "build_stgq_model",
    "solve_with_scipy",
    "IPSolver",
]
