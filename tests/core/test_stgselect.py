"""Unit and cross-check tests for Algorithm STGSelect."""


import pytest

from tests.conftest import make_random_calendars, make_random_graph

from repro.core import (
    BaselineSTGQ,
    STGQuery,
    STGSelect,
    SearchParameters,
    check_stg_solution,
)
from repro.exceptions import ScheduleError
from repro.graph import SocialGraph
from repro.temporal import CalendarStore, Schedule, SlotRange


def everyone_free(graph, horizon=8):
    cal = CalendarStore(horizon)
    for v in graph.vertices():
        cal.set(v, Schedule.always_available(horizon))
    return cal


class TestBasics:
    def test_single_person_group(self, triangle_graph):
        cal = everyone_free(triangle_graph)
        result = STGSelect(triangle_graph, cal).solve(STGQuery("q", 1, 1, 0, 3))
        assert result.feasible
        assert result.members == frozenset({"q"})
        assert len(result.period) == 3

    def test_everyone_free_matches_sgq(self, toy_dataset):
        """With unconstrained calendars STGQ degenerates to SGQ."""
        from repro.core import SGSelect, SGQuery

        cal = everyone_free(toy_dataset.graph, horizon=10)
        stg = STGSelect(toy_dataset.graph, cal).solve(STGQuery("v7", 4, 1, 1, 3))
        sg = SGSelect(toy_dataset.graph).solve(SGQuery("v7", 4, 1, 1))
        assert stg.feasible
        assert stg.total_distance == pytest.approx(sg.total_distance)

    def test_period_length_and_pivot(self, toy_dataset):
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 3)
        )
        assert result.feasible
        assert len(result.period) == 3
        assert result.pivot in result.shared_slots
        assert result.pivot % 3 == 0
        assert result.shared_slots.contains_range(result.period)

    def test_busy_initiator_infeasible(self, triangle_graph):
        cal = everyone_free(triangle_graph)
        cal.set("q", Schedule.never_available(cal.horizon))
        result = STGSelect(triangle_graph, cal).solve(STGQuery("q", 2, 1, 1, 2))
        assert not result.feasible

    def test_no_common_window_infeasible(self, triangle_graph):
        cal = CalendarStore(6)
        cal.set("q", Schedule.from_string("OOO..."))
        cal.set("a", Schedule.from_string("...OOO"))
        cal.set("b", Schedule.from_string("OOOOOO"))
        result = STGSelect(triangle_graph, cal).solve(STGQuery("q", 3, 1, 1, 2))
        assert not result.feasible

    def test_activity_longer_than_horizon_rejected(self, triangle_graph):
        cal = everyone_free(triangle_graph, horizon=4)
        with pytest.raises(ScheduleError):
            STGSelect(triangle_graph, cal).solve(STGQuery("q", 2, 1, 1, 5))

    def test_solver_name_and_stats(self, toy_dataset):
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 3)
        )
        assert result.solver == "STGSelect"
        assert result.stats.pivots_processed >= 1
        assert result.stats.nodes_expanded > 0


class TestTemporalSemantics:
    def test_prefers_cheaper_group_when_schedule_allows(self):
        """The optimal group should switch when the cheap friend becomes busy."""
        graph = SocialGraph()
        graph.add_edge("q", "cheap", 1.0)
        graph.add_edge("q", "pricey", 10.0)
        cal = CalendarStore(6)
        cal.set("q", Schedule.always_available(6))
        cal.set("cheap", Schedule.from_string("OOO..."))
        cal.set("pricey", Schedule.always_available(6))
        early = STGSelect(graph, cal).solve(STGQuery("q", 2, 1, 1, 3))
        assert early.members == frozenset({"q", "cheap"})
        assert early.period == SlotRange(1, 3)
        # Make the cheap friend unavailable: the pricey friend must be chosen.
        cal.set("cheap", Schedule.never_available(6))
        late = STGSelect(graph, cal).solve(STGQuery("q", 2, 1, 1, 3))
        assert late.members == frozenset({"q", "pricey"})

    def test_period_fits_everyones_schedule(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 1, 3)
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(query)
        report = check_stg_solution(
            toy_dataset.graph, toy_dataset.calendars, query, result.members, result.period
        )
        assert report.ok

    def test_longer_activity_changes_feasibility(self, toy_dataset):
        short = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 3)
        )
        long = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 6)
        )
        assert short.feasible
        assert not long.feasible

    def test_m_equals_one_considers_every_slot(self, toy_dataset):
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 1, 1)
        )
        assert result.feasible
        assert len(result.period) == 1


class TestStrategyToggles:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_access_ordering": False},
            {"use_distance_pruning": False},
            {"use_acquaintance_pruning": False},
            {"use_availability_pruning": False},
            {"use_pivot_slots": False},
            {
                "use_access_ordering": False,
                "use_distance_pruning": False,
                "use_acquaintance_pruning": False,
                "use_availability_pruning": False,
                "use_pivot_slots": False,
            },
        ],
    )
    def test_strategies_do_not_change_optimum(self, overrides):
        for seed in range(5):
            graph = make_random_graph(seed, n=9, edge_prob=0.45)
            cal = make_random_calendars(seed, graph.vertices(), horizon=9, availability=0.6)
            query = STGQuery(0, 3, 2, 1, 2)
            reference = STGSelect(graph, cal).solve(query)
            variant = STGSelect(graph, cal, SearchParameters(**overrides)).solve(query)
            assert reference.matches(variant), (seed, overrides)


class TestOptimalityCrossCheck:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_period_baseline(self, seed):
        graph = make_random_graph(seed, n=9, edge_prob=0.45)
        cal = make_random_calendars(seed + 100, graph.vertices(), horizon=10, availability=0.55)
        for p, s, k, m in [(3, 1, 1, 2), (4, 2, 1, 3), (3, 2, 0, 2), (4, 2, 2, 1)]:
            query = STGQuery(0, p, s, k, m)
            fast = STGSelect(graph, cal).solve(query)
            slow = BaselineSTGQ(graph, cal, inner="bruteforce").solve(query)
            assert fast.matches(slow), (seed, p, s, k, m)
            if fast.feasible:
                assert check_stg_solution(graph, cal, query, fast.members, fast.period).ok
