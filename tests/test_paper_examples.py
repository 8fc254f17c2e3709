"""End-to-end tests pinning the paper's worked examples (Appendix A).

These are the strongest regression anchors in the suite: the toy instance of
Figure 3 is fully specified in the paper, and Examples 2 and 3 trace SGSelect
and STGSelect on it by hand, giving exact optimal groups, total distances and
the selected activity period.
"""

import pytest

from repro import ActivityPlanner, SGQuery, STGQuery
from repro.core import (
    BaselineSGQ,
    BaselineSTGQ,
    IPSolver,
    SGSelect,
    STGSelect,
    observed_acquaintance,
)
from repro.datasets import MOVIE_INITIATOR, TOY_INITIATOR
from repro.temporal import SlotRange

from tests.conftest import HAVE_SCIPY


class TestExample2SGQ:
    """Example 2: SGQ(p=4, s=1, k=1) issued by v7 on the Figure-3 network."""

    def test_optimal_group_and_distance(self, toy_dataset):
        result = SGSelect(toy_dataset.graph).solve(SGQuery(TOY_INITIATOR, 4, 1, 1))
        assert result.members == frozenset({"v2", "v3", "v4", "v7"})
        assert result.total_distance == pytest.approx(62.0)

    def test_first_feasible_solution_is_also_valid(self, toy_dataset):
        """The trace's first feasible solution {v2, v4, v6, v7} is feasible but
        sub-optimal — it must be beaten by the final answer."""
        from repro.graph import is_kplex

        assert is_kplex(toy_dataset.graph, ["v2", "v4", "v6", "v7"], 1)
        total_first = 17.0 + 27.0 + 23.0
        result = SGSelect(toy_dataset.graph).solve(SGQuery(TOY_INITIATOR, 4, 1, 1))
        assert result.total_distance < total_first

    def test_infeasible_candidate_group_rejected(self, toy_dataset):
        """{v2, v3, v6, v7} is the infeasible group the access ordering avoids."""
        from repro.graph import is_kplex

        assert not is_kplex(toy_dataset.graph, ["v2", "v3", "v6", "v7"], 1)

    def test_all_solvers_agree(self, toy_dataset):
        query = SGQuery(TOY_INITIATOR, 4, 1, 1)
        results = [
            SGSelect(toy_dataset.graph).solve(query),
            BaselineSGQ(toy_dataset.graph).solve(query),
        ]
        if HAVE_SCIPY:  # the MILP cross-checks need scipy/numpy
            results += [
                IPSolver().solve_sgq(toy_dataset.graph, query),
                IPSolver(formulation="full").solve_sgq(toy_dataset.graph, query),
            ]
        for result in results:
            assert result.members == frozenset({"v2", "v3", "v4", "v7"})
            assert result.total_distance == pytest.approx(62.0)


class TestExample3STGQ:
    """Example 3: STGQ(p=4, s=1, k=1, m=3) on the Figure-3 network."""

    def test_optimal_group_and_period(self, toy_dataset):
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery(TOY_INITIATOR, 4, 1, 1, 3)
        )
        assert result.members == frozenset({"v2", "v4", "v6", "v7"})
        # The paper reports the activity period [ts2, ts4]; [ts3, ts5] is the
        # other equally valid placement inside the shared run.
        assert result.period in (SlotRange(2, 4), SlotRange(3, 5))
        assert result.shared_slots.contains_range(result.period)

    def test_pivot_ts3_is_the_anchor(self, toy_dataset):
        """The worked trace finds the only feasible group at pivot ts3 and
        nothing at pivot ts6."""
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery(TOY_INITIATOR, 4, 1, 1, 3)
        )
        assert result.pivot == 3

    def test_total_distance_is_sum_of_member_distances(self, toy_dataset):
        result = STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(
            STGQuery(TOY_INITIATOR, 4, 1, 1, 3)
        )
        assert result.total_distance == pytest.approx(17.0 + 27.0 + 23.0)

    def test_all_solvers_agree(self, toy_dataset):
        query = STGQuery(TOY_INITIATOR, 4, 1, 1, 3)
        results = [
            STGSelect(toy_dataset.graph, toy_dataset.calendars).solve(query),
            BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars).solve(query),
            BaselineSTGQ(toy_dataset.graph, toy_dataset.calendars, inner="bruteforce").solve(query),
        ]
        if HAVE_SCIPY:  # the MILP cross-check needs scipy/numpy
            results.append(
                IPSolver().solve_stgq(toy_dataset.graph, toy_dataset.calendars, query)
            )
        for result in results:
            assert result.members == frozenset({"v2", "v4", "v6", "v7"})
            assert result.total_distance == pytest.approx(67.0)


class TestExample1MovieNetwork:
    """Example 1 (Figure 2): the Casey Affleck celebrity network.

    The exact edge weights of Figure 2 are not recoverable from the paper
    text, so these tests assert the *structural* facts of the example rather
    than literal distances: the k = 0 query must return the mutually
    acquainted trio rather than the three closest friends.
    """

    def test_ten_candidate_groups_for_p4_s1(self, movie_dataset):
        result = BaselineSGQ(movie_dataset.graph).solve(SGQuery(MOVIE_INITIATOR, 4, 1, 4))
        assert result.stats.nodes_expanded == 10  # C(5, 3) as in the paper

    def test_k0_returns_the_clique(self, movie_dataset):
        planner = ActivityPlanner(movie_dataset.graph, movie_dataset.calendars)
        result = planner.find_group(
            initiator=MOVIE_INITIATOR, group_size=4, radius=1, acquaintance=0
        )
        assert result.members == frozenset(
            {"casey_affleck", "george_clooney", "brad_pitt", "julia_roberts"}
        )

    def test_unconstrained_query_prefers_closest_but_looser_group(self, movie_dataset):
        planner = ActivityPlanner(movie_dataset.graph, movie_dataset.calendars)
        loose = planner.find_group(
            initiator=MOVIE_INITIATOR, group_size=4, radius=1, acquaintance=3
        )
        tight = planner.find_group(
            initiator=MOVIE_INITIATOR, group_size=4, radius=1, acquaintance=0
        )
        assert loose.total_distance <= tight.total_distance
        assert observed_acquaintance(movie_dataset.graph, loose.members) > 0

    def test_radius_two_admits_friends_of_friends(self, movie_dataset):
        planner = ActivityPlanner(movie_dataset.graph, movie_dataset.calendars)
        result = planner.find_group(
            initiator=MOVIE_INITIATOR, group_size=6, radius=2, acquaintance=2
        )
        assert result.feasible
        two_hop_only = {"angelina_jolie", "matt_damon"}
        assert result.members & two_hop_only, "a friend-of-friend should be invited"

    def test_temporal_query_returns_valid_period(self, movie_dataset):
        planner = ActivityPlanner(movie_dataset.graph, movie_dataset.calendars)
        query = STGQuery(MOVIE_INITIATOR, 4, 2, 2, 3)
        result = planner.find_group_and_time(
            initiator=MOVIE_INITIATOR,
            group_size=4,
            activity_length=3,
            radius=2,
            acquaintance=2,
        )
        assert result.feasible
        assert planner.verify(query, result).ok
