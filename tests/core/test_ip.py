"""Unit tests for the Integer Programming formulation and its HiGHS backend."""

import math

import pytest

pytest.importorskip(
    "scipy", reason="the MILP backend needs scipy (and numpy)", exc_type=ImportError
)

from tests.conftest import make_random_calendars, make_random_graph

from repro.core import IPSolver, SGQuery, STGQuery, SGSelect, STGSelect, check_stg_solution
from repro.core.ip.model import MILPModel, build_sgq_model, build_stgq_model
from repro.core.ip.scipy_backend import solve_with_scipy
from repro.exceptions import SolverError


class TestMILPModel:
    def test_add_variable_and_constraint(self):
        model = MILPModel()
        x = model.add_variable("x", cost=1.0)
        y = model.add_variable("y", cost=2.0, is_integer=False, upper=math.inf)
        model.add_constraint({x: 1.0, y: 1.0}, lower=1.0, upper=1.0, name="sum")
        assert model.num_vars == 2
        assert model.num_constraints == 1
        assert model.variable_index("y") == y
        assert model.integrality == [1, 0]

    def test_unbounded_constraint_rejected(self):
        model = MILPModel()
        x = model.add_variable("x")
        with pytest.raises(SolverError):
            model.add_constraint({x: 1.0})

    def test_unknown_variable_name(self):
        model = MILPModel()
        with pytest.raises(SolverError):
            model.variable_index("missing")


class TestModelConstruction:
    def test_compact_sgq_model_size(self, toy_dataset):
        model = build_sgq_model(toy_dataset.graph, SGQuery("v7", 4, 1, 1), formulation="compact")
        # One phi variable per feasible vertex (6), no path variables.
        assert model.num_vars == 6
        # Group size + initiator + one acquaintance constraint per vertex.
        assert model.num_constraints == 2 + 6

    def test_full_sgq_model_has_path_variables(self, toy_dataset):
        compact = build_sgq_model(toy_dataset.graph, SGQuery("v7", 4, 1, 1), formulation="compact")
        full = build_sgq_model(toy_dataset.graph, SGQuery("v7", 4, 1, 1), formulation="full")
        assert full.num_vars > compact.num_vars
        assert any(name.startswith("pi[") for name in full.variable_names)
        assert any(name.startswith("delta[") for name in full.variable_names)

    def test_stgq_model_has_start_slot_variables(self, toy_dataset):
        model = build_stgq_model(
            toy_dataset.graph, toy_dataset.calendars, STGQuery("v7", 4, 1, 1, 3)
        )
        assert "tau" in model.metadata
        tau = model.metadata["tau"]
        # Horizon 7, m = 3 -> start slots 1..5.
        assert sorted(tau) == [1, 2, 3, 4, 5]

    def test_invalid_formulation_rejected(self, toy_dataset):
        with pytest.raises(SolverError):
            build_sgq_model(toy_dataset.graph, SGQuery("v7", 4, 1, 1), formulation="???")

    def test_activity_longer_than_horizon_rejected(self, toy_dataset):
        with pytest.raises(SolverError):
            build_stgq_model(
                toy_dataset.graph, toy_dataset.calendars, STGQuery("v7", 4, 1, 1, 20)
            )


class TestBackends:
    def test_scipy_empty_model(self):
        solution = solve_with_scipy(MILPModel())
        assert solution.optimal
        assert solution.objective == 0.0

    def test_infeasible_model(self):
        model = MILPModel()
        x = model.add_variable("x")
        model.add_constraint({x: 1.0}, lower=2.0, upper=3.0)  # binary cannot reach 2
        assert solve_with_scipy(model).status == "infeasible"

    def test_stop_without_answer_raises(self, toy_dataset, monkeypatch):
        # A HiGHS stop that proves neither optimality nor infeasibility (here
        # status 1, a time or iteration limit) must not read as "no group".
        import scipy.optimize
        from scipy.optimize import OptimizeResult

        stopped = OptimizeResult(status=1, x=None, fun=None, message="Time limit reached")
        monkeypatch.setattr(scipy.optimize, "milp", lambda **kwargs: stopped)
        with pytest.raises(SolverError, match="Time limit reached"):
            IPSolver().solve_sgq(toy_dataset.graph, SGQuery("v7", 4, 1, 1))

    def test_solution_value_of_defaults_to_zero_when_not_optimal(self):
        from repro.core.ip.scipy_backend import MILPSolution

        sol = MILPSolution(status="infeasible", objective=math.inf, values=[])
        assert sol.value_of(3) == 0.0


class TestIPSolver:
    def test_sgq_matches_sgselect(self, toy_dataset):
        query = SGQuery("v7", 4, 1, 1)
        ip = IPSolver().solve_sgq(toy_dataset.graph, query)
        combinatorial = SGSelect(toy_dataset.graph).solve(query)
        assert ip.matches(combinatorial)
        assert ip.members == combinatorial.members
        assert ip.solver == "IP(compact,scipy)"

    def test_full_formulation_matches_compact(self, toy_dataset):
        query = SGQuery("v7", 4, 1, 1)
        compact = IPSolver(formulation="compact").solve_sgq(toy_dataset.graph, query)
        full = IPSolver(formulation="full").solve_sgq(toy_dataset.graph, query)
        assert compact.matches(full)

    def test_full_formulation_multi_hop_distances(self, two_hop_graph):
        """The path constraints must reproduce the two-edge minimum distance:
        with the whole triangle selected, b's contribution is the cheap
        two-edge path (1 + 1) rather than the expensive direct edge (10)."""
        query = SGQuery("q", 3, 2, 2)
        result = IPSolver(formulation="full").solve_sgq(two_hop_graph, query)
        assert result.feasible
        assert result.total_distance == pytest.approx(3.0)
        # With the radius tightened to one edge the direct path is forced.
        tight = IPSolver(formulation="full").solve_sgq(two_hop_graph, SGQuery("q", 3, 1, 2))
        assert tight.total_distance == pytest.approx(11.0)

    def test_stgq_matches_stgselect(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 1, 3)
        ip = IPSolver().solve_stgq(toy_dataset.graph, toy_dataset.calendars, query)
        combinatorial = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(query)
        assert ip.matches(combinatorial)
        assert ip.period is not None
        assert len(ip.period) == 3

    def test_stgq_infeasible(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 1, 6)
        result = IPSolver().solve_stgq(toy_dataset.graph, toy_dataset.calendars, query)
        assert not result.feasible

    def test_sgq_infeasible(self, star_graph):
        result = IPSolver().solve_sgq(star_graph, SGQuery("q", 3, 1, 0))
        assert not result.feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sgselect_on_random_graphs(self, seed):
        graph = make_random_graph(seed, n=9, edge_prob=0.45)
        query = SGQuery(0, 4, 2, 1)
        ip = IPSolver().solve_sgq(graph, query)
        combinatorial = SGSelect(graph).solve(query)
        assert ip.matches(combinatorial)

    @pytest.mark.parametrize("query", [STGQuery(0, 4, 2, 1, 2), STGQuery(0, 3, 1, 1, 3)])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_stgselect_on_random_instances(self, seed, query):
        graph = make_random_graph(seed, n=9, edge_prob=0.5)
        calendars = make_random_calendars(seed, range(9), horizon=8, availability=0.8)
        ip = IPSolver().solve_stgq(graph, calendars, query)
        combinatorial = STGSelect(graph, calendars).solve(query)
        assert ip.matches(combinatorial)
        if ip.feasible:
            assert check_stg_solution(graph, calendars, query, ip.members, ip.period).ok
