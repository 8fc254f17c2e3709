"""Unit and cross-check tests for Algorithm SGSelect."""

import math

import pytest

from tests.conftest import make_random_graph
from repro.core import BaselineSGQ, SGQuery, SGSelect, SearchParameters, check_sg_solution


class TestBasics:
    def test_single_person_group(self, triangle_graph):
        result = SGSelect(triangle_graph).solve(SGQuery("q", 1, 1, 0))
        assert result.feasible
        assert result.members == frozenset({"q"})
        assert result.total_distance == 0.0

    def test_pair_selects_closest_friend(self, star_graph):
        result = SGSelect(star_graph).solve(SGQuery("q", 2, 1, 0))
        assert result.members == frozenset({"q", "a"})
        assert result.total_distance == 1.0

    def test_triangle_clique(self, triangle_graph):
        result = SGSelect(triangle_graph).solve(SGQuery("q", 3, 1, 0))
        assert result.feasible
        assert result.total_distance == pytest.approx(3.0)

    def test_star_with_strict_k_infeasible(self, star_graph):
        result = SGSelect(star_graph).solve(SGQuery("q", 3, 1, 0))
        assert not result.feasible
        assert result.total_distance == math.inf

    def test_star_with_loose_k_feasible(self, star_graph):
        result = SGSelect(star_graph).solve(SGQuery("q", 3, 1, 1))
        assert result.feasible
        assert result.members == frozenset({"q", "a", "b"})

    def test_not_enough_candidates(self, triangle_graph):
        result = SGSelect(triangle_graph).solve(SGQuery("q", 5, 1, 4))
        assert not result.feasible

    def test_solver_name_and_stats(self, toy_dataset):
        result = SGSelect(toy_dataset.graph).solve(SGQuery("v7", 4, 1, 1))
        assert result.solver == "SGSelect"
        assert result.stats.nodes_expanded > 0
        assert result.stats.elapsed_seconds >= 0.0


class TestRadiusSemantics:
    def test_radius_one_excludes_second_hop(self, two_hop_graph):
        graph = two_hop_graph
        graph.add_edge("a", "c", 1.0)  # c is two hops from q
        result = SGSelect(graph).solve(SGQuery("q", 3, 1, 2))
        assert "c" not in result.members

    def test_radius_two_uses_cheaper_path_distance(self, two_hop_graph):
        result1 = SGSelect(two_hop_graph).solve(SGQuery("q", 3, 1, 2))
        result2 = SGSelect(two_hop_graph).solve(SGQuery("q", 3, 2, 2))
        assert result1.total_distance == pytest.approx(11.0)  # 1 + 10 via direct edge
        assert result2.total_distance == pytest.approx(3.0)  # 1 + (1 + 1) via a

    def test_initiator_must_exist(self, triangle_graph):
        from repro.exceptions import VertexNotFoundError

        with pytest.raises(VertexNotFoundError):
            SGSelect(triangle_graph).solve(SGQuery("ghost", 2, 1, 0))


class TestAllowedCandidates:
    def test_restriction_changes_answer(self, toy_dataset):
        query = SGQuery("v7", 4, 1, 1)
        unrestricted = SGSelect(toy_dataset.graph).solve(query)
        restricted = SGSelect(toy_dataset.graph).solve(
            query, allowed_candidates={"v2", "v4", "v6"}
        )
        assert unrestricted.total_distance == pytest.approx(62.0)
        assert restricted.members == frozenset({"v7", "v2", "v4", "v6"})
        assert restricted.total_distance == pytest.approx(67.0)

    def test_restriction_to_too_few_candidates(self, toy_dataset):
        result = SGSelect(toy_dataset.graph).solve(
            SGQuery("v7", 4, 1, 1), allowed_candidates={"v2"}
        )
        assert not result.feasible

    def test_distances_still_measured_on_full_graph(self, two_hop_graph):
        # Restricting candidates to {b} must not change b's two-edge distance.
        result = SGSelect(two_hop_graph).solve(
            SGQuery("q", 2, 2, 1), allowed_candidates={"b"}
        )
        assert result.members == frozenset({"q", "b"})
        assert result.total_distance == pytest.approx(2.0)


class TestStrategyToggles:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"use_access_ordering": False},
            {"use_distance_pruning": False},
            {"use_acquaintance_pruning": False},
            {"theta": 0},
            {"theta": 5},
            {
                "use_access_ordering": False,
                "use_distance_pruning": False,
                "use_acquaintance_pruning": False,
            },
        ],
    )
    def test_strategies_do_not_change_optimum(self, overrides):
        """Disabling any pruning/ordering strategy must never change the
        returned optimal distance (only the amount of work)."""
        for seed in range(6):
            graph = make_random_graph(seed, n=11, edge_prob=0.45)
            query = SGQuery(0, 4, 2, 1)
            reference = SGSelect(graph).solve(query)
            variant = SGSelect(graph, SearchParameters(**overrides)).solve(query)
            assert reference.matches(variant), (seed, overrides)

    def test_pruning_reduces_nodes(self):
        graph = make_random_graph(3, n=14, edge_prob=0.5)
        query = SGQuery(0, 5, 2, 1)
        with_pruning = SGSelect(graph).solve(query)
        without = SGSelect(
            graph,
            SearchParameters(use_distance_pruning=False, use_acquaintance_pruning=False),
        ).solve(query)
        assert with_pruning.stats.nodes_expanded <= without.stats.nodes_expanded


class TestOptimalityCrossCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_on_random_graphs(self, seed):
        graph = make_random_graph(seed, n=10, edge_prob=0.4)
        for p, s, k in [(3, 1, 1), (4, 2, 0), (4, 2, 2), (5, 2, 1), (3, 3, 0)]:
            query = SGQuery(0, p, s, k)
            fast = SGSelect(graph).solve(query)
            slow = BaselineSGQ(graph).solve(query)
            assert fast.matches(slow), (seed, p, s, k)
            if fast.feasible:
                assert check_sg_solution(graph, query, fast.members).ok

    def test_solution_satisfies_all_constraints(self, toy_dataset):
        for k in (0, 1, 2):
            query = SGQuery("v7", 4, 1, k)
            result = SGSelect(toy_dataset.graph).solve(query)
            if result.feasible:
                assert check_sg_solution(toy_dataset.graph, query, result.members).ok
