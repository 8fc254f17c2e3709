"""Unit tests for the PCArrange manual-coordination heuristic."""

import pytest

from repro.core import PCArrange, STGQuery, STGSelect, check_stg_solution
from repro.temporal import CalendarStore, Schedule


class TestPCArrange:
    def test_invites_closest_friends_when_everyone_is_free(self, toy_dataset):
        cal = CalendarStore(7)
        for person in toy_dataset.graph.vertices():
            cal.set(person, Schedule.always_available(7))
        result = PCArrange(toy_dataset.graph, cal).solve(STGQuery("v7", 4, 1, 4, 3))
        # Closest-first coordination: v2 (17), v3 (18), v6 (23).
        assert result.feasible
        assert result.solver == "PCArrange"
        assert result.members == frozenset({"v7", "v2", "v3", "v6"})
        assert result.total_distance == pytest.approx(17.0 + 18.0 + 23.0)

    def test_skips_friends_without_common_window(self, toy_dataset):
        result = PCArrange(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, 4, 3)
        )
        assert result.feasible
        # v3 would break the 3-slot common window, so the coordinator skips it.
        assert "v3" not in result.members
        assert result.members == frozenset({"v7", "v2", "v4", "v6"})

    def test_period_is_valid_for_all_members(self, toy_dataset):
        query = STGQuery("v7", 4, 1, 4, 3)
        result = PCArrange(toy_dataset.graph, toy_dataset.calendars).solve(query)
        report = check_stg_solution(
            toy_dataset.graph, toy_dataset.calendars, query, result.members, result.period
        )
        # PCArrange ignores the acquaintance constraint, so only availability,
        # size and radius are expected to hold.
        assert report.size_ok and report.radius_ok and report.availability_ok

    def test_infeasible_when_initiator_has_no_window(self, toy_dataset):
        cal = CalendarStore(7)
        for person in toy_dataset.graph.vertices():
            cal.set(person, Schedule.always_available(7))
        cal.set("v7", Schedule.from_string("O.O.O.O"))
        result = PCArrange(toy_dataset.graph, cal).solve(STGQuery("v7", 3, 1, 3, 3))
        assert not result.feasible

    def test_infeasible_when_not_enough_friends_can_attend(self, toy_dataset):
        result = PCArrange(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 6, 1, 6, 3)
        )
        assert not result.feasible

    def test_observed_k(self, toy_dataset):
        pc = PCArrange(toy_dataset.graph, toy_dataset.calendars)
        result = pc.solve(STGQuery("v7", 4, 1, 4, 3))
        # {v7, v2, v4, v6} is a clique in the toy graph -> observed k = 0.
        assert pc.observed_k(result) == 0
        assert pc.observed_k(result.__class__.infeasible()) == 0

    def test_never_beats_stgselect_given_observed_k(self, toy_dataset):
        """STGSelect run with PCArrange's observed k must be at least as good."""
        pc = PCArrange(toy_dataset.graph, toy_dataset.calendars)
        result = pc.solve(STGQuery("v7", 4, 1, 4, 3))
        k_h = pc.observed_k(result)
        optimal = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery("v7", 4, 1, k_h, 3)
        )
        assert optimal.feasible
        assert optimal.total_distance <= result.total_distance
