"""Unit tests for the greedy approximate solvers (library extension)."""


import pytest

from tests.conftest import make_random_calendars, make_random_graph

from repro.core import (
    GreedySGQ,
    GreedySTGQ,
    SGQuery,
    SGSelect,
    STGQuery,
    STGSelect,
    check_sg_solution,
    check_stg_solution,
)
from repro.temporal import CalendarStore, Schedule


class TestGreedySGQ:
    def test_toy_example_feasible_and_near_optimal(self, toy_dataset):
        query = SGQuery("v7", 4, 1, 1)
        greedy = GreedySGQ(toy_dataset.graph).solve(query)
        exact = SGSelect(toy_dataset.graph).solve(query)
        assert greedy.feasible
        assert check_sg_solution(toy_dataset.graph, query, greedy.members).ok
        assert greedy.total_distance >= exact.total_distance
        assert greedy.total_distance <= 1.25 * exact.total_distance

    def test_clique_preference_when_close_friends_are_strangers(self, toy_dataset):
        """With k = 0 the greedy closest-first pass gets stuck (the closest
        friends are mutual strangers) and the connectivity-ordered retry must
        recover the clique."""
        query = SGQuery("v7", 4, 1, 0)
        greedy = GreedySGQ(toy_dataset.graph).solve(query)
        assert greedy.feasible
        assert greedy.members == frozenset({"v2", "v4", "v6", "v7"})

    def test_single_person(self, toy_dataset):
        result = GreedySGQ(toy_dataset.graph).solve(SGQuery("v7", 1, 1, 0))
        assert result.members == frozenset({"v7"})
        assert result.total_distance == 0.0

    def test_infeasible_instance(self, star_graph):
        result = GreedySGQ(star_graph).solve(SGQuery("q", 3, 1, 0))
        assert not result.feasible

    def test_local_search_improves_or_keeps_distance(self):
        graph = make_random_graph(7, n=14, edge_prob=0.5)
        query = SGQuery(0, 5, 2, 1)
        no_ls = GreedySGQ(graph, local_search_rounds=0).solve(query)
        with_ls = GreedySGQ(graph, local_search_rounds=5).solve(query)
        if no_ls.feasible and with_ls.feasible:
            assert with_ls.total_distance <= no_ls.total_distance + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_never_better_than_optimal(self, seed):
        graph = make_random_graph(seed, n=12, edge_prob=0.45)
        query = SGQuery(0, 4, 2, 1)
        greedy = GreedySGQ(graph).solve(query)
        exact = SGSelect(graph).solve(query)
        if greedy.feasible:
            assert exact.feasible
            assert check_sg_solution(graph, query, greedy.members).ok
            assert greedy.total_distance >= exact.total_distance - 1e-9


class TestGreedySTGQ:
    def test_toy_example(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 1, 3)
        greedy = GreedySTGQ(toy_dataset.graph, toy_dataset.calendars).solve(query)
        exact = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(query)
        assert greedy.feasible
        assert greedy.solver == "GreedySTGQ"
        assert check_stg_solution(
            toy_dataset.graph, toy_dataset.calendars, query, greedy.members, greedy.period
        ).ok
        assert greedy.total_distance >= exact.total_distance - 1e-9

    def test_infeasible_when_no_common_window(self, triangle_graph):
        cal = CalendarStore(4)
        cal.set("q", Schedule.from_string("OO.."))
        cal.set("a", Schedule.from_string("..OO"))
        cal.set("b", Schedule.from_string("..OO"))
        result = GreedySTGQ(triangle_graph, cal).solve(STGQuery("q", 3, 1, 1, 2))
        assert not result.feasible

    @pytest.mark.parametrize("seed", range(4))
    def test_feasible_and_never_better_than_optimal(self, seed):
        graph = make_random_graph(seed, n=10, edge_prob=0.5)
        cal = make_random_calendars(seed + 50, graph.vertices(), horizon=10, availability=0.65)
        query = STGQuery(0, 3, 2, 1, 2)
        greedy = GreedySTGQ(graph, cal).solve(query)
        exact = STGSelect(graph, cal).solve(query)
        if greedy.feasible:
            assert exact.feasible
            assert check_stg_solution(graph, cal, query, greedy.members, greedy.period).ok
            assert greedy.total_distance >= exact.total_distance - 1e-9
        if exact.feasible and not greedy.feasible:
            # The heuristic may miss feasible instances, but on these small
            # dense instances it should rarely do so; tolerate but record.
            pytest.skip("greedy missed a feasible instance (allowed for a heuristic)")


class TestPlannerIntegration:
    def test_planner_exposes_greedy_algorithms(self, toy_dataset):
        from repro import ActivityPlanner

        planner = ActivityPlanner(toy_dataset.graph, toy_dataset.calendars)
        sg = planner.find_group(
            initiator="v7", group_size=4, radius=1, acquaintance=1, algorithm="greedy"
        )
        stg = planner.find_group_and_time(
            initiator="v7",
            group_size=4,
            activity_length=3,
            radius=1,
            acquaintance=1,
            algorithm="greedy",
        )
        assert sg.feasible and stg.feasible
