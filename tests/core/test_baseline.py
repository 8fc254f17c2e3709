"""Unit tests for the brute-force baseline solvers."""


import pytest

from tests.conftest import make_random_calendars, make_random_graph

from repro.core import BaselineSGQ, BaselineSTGQ, SGQuery, STGQuery
from repro.temporal import CalendarStore, Schedule


class TestBaselineSGQ:
    def test_toy_example(self, toy_dataset):
        result = BaselineSGQ(toy_dataset.graph).solve(SGQuery("v7", 4, 1, 1))
        assert result.feasible
        assert result.members == frozenset({"v2", "v3", "v4", "v7"})
        assert result.total_distance == pytest.approx(62.0)

    def test_single_person(self, toy_dataset):
        result = BaselineSGQ(toy_dataset.graph).solve(SGQuery("v7", 1, 1, 0))
        assert result.members == frozenset({"v7"})
        assert result.total_distance == 0.0

    def test_infeasible_when_k_too_strict(self, star_graph):
        result = BaselineSGQ(star_graph).solve(SGQuery("q", 3, 1, 0))
        assert not result.feasible

    def test_infeasible_when_too_few_candidates(self, triangle_graph):
        result = BaselineSGQ(triangle_graph).solve(SGQuery("q", 6, 1, 5))
        assert not result.feasible

    def test_max_groups_cap(self, toy_dataset):
        with pytest.raises(ValueError):
            BaselineSGQ(toy_dataset.graph).solve(SGQuery("v7", 4, 1, 1), max_groups=3)

    def test_allowed_candidates_restriction(self, toy_dataset):
        result = BaselineSGQ(toy_dataset.graph).solve(
            SGQuery("v7", 4, 1, 1), allowed_candidates={"v2", "v4", "v6"}
        )
        assert result.members == frozenset({"v7", "v2", "v4", "v6"})

    def test_enumeration_count(self, toy_dataset):
        result = BaselineSGQ(toy_dataset.graph).solve(SGQuery("v7", 4, 1, 1))
        # C(5, 3) = 10 candidate groups, as in the paper's Example 1.
        assert result.stats.nodes_expanded == 10


class TestBaselineSTGQ:
    def test_toy_example(self, toy_dataset):
        result = BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 3)
        )
        assert result.feasible
        assert result.members == frozenset({"v2", "v4", "v6", "v7"})
        assert result.period.as_tuple() == (2, 4)

    def test_inner_variants_agree(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 1, 3)
        a = BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars, inner="sgselect").solve(query)
        b = BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars, inner="bruteforce").solve(query)
        assert a.matches(b)

    def test_invalid_inner_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars, inner="magic")

    def test_infeasible_when_no_common_window(self, triangle_graph):
        cal = CalendarStore(4)
        cal.set("q", Schedule.from_string("OO.."))
        cal.set("a", Schedule.from_string("..OO"))
        cal.set("b", Schedule.from_string("..OO"))
        result = BaselineSTGQ(triangle_graph, cal).solve(STGQuery("q", 3, 1, 1, 2))
        assert not result.feasible

    def test_period_count_in_stats(self, toy_dataset):
        result = BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 3)
        )
        # Horizon 7, m = 3 -> 5 candidate periods examined.
        assert result.stats.pivots_processed == 5

    @pytest.mark.parametrize("seed", range(4))
    def test_inner_variants_agree_on_random_instances(self, seed):
        graph = make_random_graph(seed, n=8, edge_prob=0.5)
        cal = make_random_calendars(seed, graph.vertices(), horizon=8, availability=0.6)
        query = STGQuery(0, 3, 2, 1, 2)
        a = BaselineSTGQ(graph, cal, inner="sgselect").solve(query)
        b = BaselineSTGQ(graph, cal, inner="bruteforce").solve(query)
        assert a.matches(b)
