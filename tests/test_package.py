"""Package-level tests: public API surface, exceptions hierarchy, docstrings."""

import importlib.util
import inspect

import pytest

import repro
from repro import exceptions


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"{name} listed in __all__ but missing"

    def test_key_entry_points_exposed(self):
        assert callable(repro.ActivityPlanner)
        assert callable(repro.SGSelect)
        assert callable(repro.STGSelect)
        assert callable(repro.SocialGraph)
        assert callable(repro.CalendarStore)

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.graph",
            "repro.temporal",
            "repro.core",
            "repro.datasets",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.core.sgselect",
            "repro.core.stgselect",
            "repro.core.baseline",
            "repro.core.pruning",
            "repro.core.ordering",
            "repro.core.heuristics",
            "repro.graph.social_graph",
            "repro.graph.distance",
            "repro.temporal.schedule",
            "repro.temporal.pivot",
        ],
    )
    def test_public_classes_and_functions_are_documented(self, module_name):
        """Every public item in the core modules carries a docstring."""
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} has no module docstring"
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__doc__, f"{module_name}.{name} has no docstring"


class TestOneCallingConvention:
    """A solver is a class given a query object, or the planner by name."""

    RETIRED = (
        "sg_select",
        "stg_select",
        "baseline_sg",
        "baseline_stg",
        "greedy_sg",
        "greedy_stg",
        "pc_arrange",
        "solve_sgq_ip",
        "solve_stgq_ip",
        "solve_with_branch_bound",
        "InfeasibleQueryError",
    )

    @pytest.mark.parametrize("module_name", ["repro", "repro.core", "repro.core.ip"])
    def test_retired_names_are_gone(self, module_name):
        module = importlib.import_module(module_name)
        for name in self.RETIRED:
            assert not hasattr(module, name), f"{module_name}.{name} still exists"
            assert name not in getattr(module, "__all__", [])
        assert not hasattr(exceptions, "InfeasibleQueryError")
        assert importlib.util.find_spec("repro.core.ip.branch_bound") is None

    def test_retired_keywords_are_rejected(self, star_graph):
        from repro.core import IPSolver, SGQuery, SGSelect, STGQuery, STGSelect
        from repro.temporal import CalendarStore

        with pytest.raises(TypeError):
            IPSolver(backend="branch-bound")
        with pytest.raises(TypeError):
            IPSolver(time_limit=1.0)
        with pytest.raises(TypeError):
            SGSelect(star_graph).solve(SGQuery("q", 3, 1, 0), on_infeasible="raise")
        with pytest.raises(TypeError):
            STGSelect(star_graph, CalendarStore(4)).solve(
                STGQuery("q", 2, 1, 1, 2), on_infeasible="raise"
            )


class TestExceptions:
    def test_hierarchy(self):
        assert issubclass(exceptions.GraphError, exceptions.ReproError)
        assert issubclass(exceptions.ScheduleError, exceptions.ReproError)
        assert issubclass(exceptions.QueryError, exceptions.ReproError)
        assert issubclass(exceptions.SolverError, exceptions.ReproError)
        assert issubclass(exceptions.VertexNotFoundError, exceptions.GraphError)
        assert issubclass(exceptions.EdgeNotFoundError, exceptions.GraphError)

    def test_vertex_not_found_carries_vertex(self):
        err = exceptions.VertexNotFoundError("bob")
        assert err.vertex == "bob"
        assert "bob" in str(err)

    def test_edge_not_found_carries_endpoints(self):
        err = exceptions.EdgeNotFoundError("a", "b")
        assert (err.u, err.v) == ("a", "b")

    def test_single_except_clause_catches_everything(self, star_graph):
        from repro.core import SGSelect, SGQuery

        with pytest.raises(exceptions.ReproError):
            SGSelect(star_graph).solve(SGQuery("missing", 2, 1, 0))
        with pytest.raises(exceptions.ReproError):
            SGQuery("q", 0, 1, 0)


class TestMainModule:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        completed = subprocess.run(
            [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
        )
        assert completed.returncode == 0
        assert "Social-Temporal Group Query" in completed.stdout

    def test_cli_import_loads_neither_numpy_nor_scipy(self):
        # A worker or gateway serving a dict graph never calls numpy or
        # scipy, so importing the CLI must not load them: both load on
        # first use.
        import subprocess
        import sys

        probe = "import sys, repro.cli; print(sorted({'numpy', 'scipy'} & set(sys.modules)))"
        completed = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"
