"""Unit tests for the pruning strategies (Lemmas 2, 3 and 5)."""

import math


from repro.core import acquaintance_pruning, availability_pruning, distance_pruning
from repro.graph import SocialGraph
from repro.temporal import CalendarStore, Schedule
from repro.temporal.pivot import pivot_window


class TestDistancePruning:
    def test_never_fires_without_incumbent(self):
        assert not distance_pruning(math.inf, 10.0, 2, 4, [1.0, 2.0])

    def test_paper_example_fires(self):
        """Example 2: D = 62, VS = {v7, v3} (sum 18), two more needed, min 23."""
        assert distance_pruning(62.0, 18.0, 2, 4, [27.0, 23.0, 25.0])

    def test_does_not_fire_when_budget_sufficient(self):
        assert not distance_pruning(62.0, 17.0, 2, 4, [18.0, 23.0])

    def test_complete_group_never_pruned(self):
        assert not distance_pruning(10.0, 50.0, 4, 4, [1.0])

    def test_empty_candidate_set_not_pruned_here(self):
        assert not distance_pruning(10.0, 0.0, 1, 4, [])

    def test_soundness_on_boundary(self):
        """Equality is not pruned: a completion exactly matching the incumbent
        is allowed to surface (it does not change the optimum)."""
        assert not distance_pruning(10.0, 4.0, 2, 4, [3.0])
        assert distance_pruning(10.0, 4.1, 2, 4, [3.0])


class TestAcquaintancePruning:
    def test_paper_example_fires(self, toy_dataset):
        """Example 2: VS = {v7}, VA = {v4, v6, v8}, p = 4, k = 1 is pruned."""
        assert acquaintance_pruning(
            toy_dataset.graph, ["v4", "v6", "v8"], members_count=1, group_size=4, acquaintance=1
        )

    def test_does_not_fire_on_connected_candidates(self, toy_dataset):
        assert not acquaintance_pruning(
            toy_dataset.graph, ["v2", "v4", "v6"], members_count=1, group_size=4, acquaintance=1
        )

    def test_lemma3_as_printed_would_overprune(self):
        """Counter-example for the paper's original bound (the corrected one is
        recorded in the docstring of ``repro.core.pruning.acquaintance_pruning``):
        the initiator knows both candidates, the candidates do not know each
        other, and k = 1 — the group {q, a, b} is feasible, yet the printed
        bound (p - |VS|)(p - |VS| - k) = 2 exceeds the achievable inner degree
        of 0.  The corrected rule must NOT prune this state."""
        graph = SocialGraph()
        graph.add_edge("q", "a", 1.0)
        graph.add_edge("q", "b", 1.0)
        assert not acquaintance_pruning(graph, ["a", "b"], members_count=1, group_size=3, acquaintance=1)
        # For reference: the group really is feasible.
        from repro.graph import is_kplex

        assert is_kplex(graph, ["q", "a", "b"], 1)

    def test_fires_when_candidates_too_sparse(self):
        """Choosing 3 mutually unacquainted candidates with k = 0 is impossible."""
        graph = SocialGraph()
        for name in ("a", "b", "c"):
            graph.add_edge("q", name, 1.0)
        assert acquaintance_pruning(graph, ["a", "b", "c"], members_count=1, group_size=4, acquaintance=0)

    def test_never_fires_when_requirement_non_positive(self, star_graph):
        assert not acquaintance_pruning(star_graph, ["a", "b"], members_count=2, group_size=4, acquaintance=3)

    def test_never_fires_with_empty_candidates(self, star_graph):
        assert not acquaintance_pruning(star_graph, [], members_count=1, group_size=4, acquaintance=0)

    def test_never_fires_when_group_complete(self, star_graph):
        assert not acquaintance_pruning(star_graph, ["a"], members_count=4, group_size=4, acquaintance=0)


class TestAvailabilityPruning:
    def make_calendars(self, patterns, horizon):
        cal = CalendarStore(horizon)
        for person, pattern in patterns.items():
            cal.set(person, Schedule.from_string(pattern))
        return cal

    def test_paper_example_fires(self, toy_dataset):
        """Example 3: pivot ts6, VS = {v2, v7}, VA = {v3, v6, v8}, m = 3."""
        window = pivot_window(pivot=6, activity_length=3, horizon=7)
        assert availability_pruning(
            toy_dataset.calendars,
            remaining=["v3", "v6", "v8"],
            members_count=2,
            group_size=4,
            window=window,
        )

    def test_does_not_fire_when_candidates_available(self):
        cal = self.make_calendars({"a": "OOOOOO", "b": "OOOOOO"}, horizon=6)
        window = pivot_window(pivot=3, activity_length=3, horizon=6)
        assert not availability_pruning(cal, ["a", "b"], members_count=2, group_size=4, window=window)

    def test_fires_when_all_candidates_busy_near_pivot(self):
        # Both candidates are busy right before and right after the pivot.
        cal = self.make_calendars({"a": ".OOO..", "b": ".OOO.."}, horizon=6)
        window = pivot_window(pivot=3, activity_length=3, horizon=6)
        # Window is [1, 5]; slot 1 and slot 5 are busy for everyone, leaving
        # only slots 2-4 (3 slots) -> not prunable for m = 3 ...
        assert not availability_pruning(cal, ["a", "b"], members_count=2, group_size=4, window=window)
        # ... but for candidates busy at slot 4 the shared corridor shrinks to
        # 2 slots, so the state is prunable.
        cal2 = self.make_calendars({"a": ".OO.O.", "b": ".OO.O."}, horizon=6)
        assert availability_pruning(cal2, ["a", "b"], members_count=2, group_size=4, window=window)

    def test_threshold_respects_spare_candidates(self):
        """With more candidates than needed, a single busy person near the
        pivot must not trigger the prune."""
        cal = self.make_calendars({"a": "OOOOOO", "b": "OOOOOO", "c": "......"}, horizon=6)
        window = pivot_window(pivot=3, activity_length=3, horizon=6)
        assert not availability_pruning(cal, ["a", "b", "c"], members_count=2, group_size=4, window=window)

    def test_never_fires_when_group_complete(self):
        cal = self.make_calendars({"a": "......"}, horizon=6)
        window = pivot_window(pivot=3, activity_length=3, horizon=6)
        assert not availability_pruning(cal, ["a"], members_count=4, group_size=4, window=window)

    def test_never_fires_with_too_few_candidates(self):
        cal = self.make_calendars({"a": "......"}, horizon=6)
        window = pivot_window(pivot=3, activity_length=3, horizon=6)
        assert not availability_pruning(cal, ["a"], members_count=1, group_size=4, window=window)
