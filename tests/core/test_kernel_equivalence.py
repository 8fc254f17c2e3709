"""Equivalence of the compiled kernel against the reference kernel.

Both kernels (``reference`` — the executable specification, ``compiled`` —
int bitmasks) are required to visit the identical search tree, so the
assertions here are strict: same feasibility, same members, same total
distance (exact float equality — the distance sums accumulate in the same
order), same temporal fields for STGQ, and the same search statistics.
Randomised instances come from hypothesis; the seeded fixtures cover the
ablation toggles and the ``allowed_candidates`` restriction.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery, STGSelect
from repro.graph import SocialGraph, compile_feasible_graph, extract_feasible_graph
from repro.graph.compiled import iter_bits, lowest_bit_index
from repro.temporal import CalendarStore, Schedule

from ..conftest import make_random_calendars, make_random_graph

#: Every kernel exercised by the equivalence assertions.
KERNELS = ("reference", "compiled")


def _params(kernel, **kwargs):
    return SearchParameters(kernel=kernel, **kwargs)


def _strip(stats):
    d = stats.as_dict()
    d.pop("elapsed_seconds")
    return d


def assert_sg_equivalent(graph, query, allowed_candidates=None, **param_kwargs):
    results = {
        kernel: SGSelect(graph, _params(kernel, **param_kwargs)).solve(
            query, allowed_candidates=allowed_candidates
        )
        for kernel in KERNELS
    }
    ref = results["reference"]
    for kernel, result in results.items():
        assert result.feasible == ref.feasible, kernel
        assert result.members == ref.members, kernel
        assert result.total_distance == ref.total_distance, kernel
        assert _strip(result.stats) == _strip(ref.stats), kernel
    return ref, results["compiled"]


def assert_stg_equivalent(graph, calendars, query, **param_kwargs):
    results = {
        kernel: STGSelect(graph, calendars, _params(kernel, **param_kwargs)).solve(query)
        for kernel in KERNELS
    }
    ref = results["reference"]
    for kernel, result in results.items():
        assert result.feasible == ref.feasible, kernel
        assert result.members == ref.members, kernel
        assert result.total_distance == ref.total_distance, kernel
        assert result.period == ref.period, kernel
        assert result.pivot == ref.pivot, kernel
        assert result.shared_slots == ref.shared_slots, kernel
        assert _strip(result.stats) == _strip(ref.stats), kernel
    return ref, results["compiled"]


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def social_graphs(draw, min_vertices=4, max_vertices=10):
    n = draw(st.integers(min_vertices, max_vertices))
    graph = SocialGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.integers(1, 15)))
    return graph


@st.composite
def sg_instances(draw):
    graph = draw(social_graphs())
    query = SGQuery(
        initiator=0,
        group_size=draw(st.integers(1, 6)),
        radius=draw(st.integers(1, 3)),
        acquaintance=draw(st.integers(0, 3)),
    )
    return graph, query


@st.composite
def stg_instances(draw):
    graph = draw(social_graphs(max_vertices=8))
    horizon = draw(st.integers(4, 10))
    store = CalendarStore(horizon)
    for person in graph:
        slots = draw(st.lists(st.integers(1, horizon), unique=True, max_size=horizon))
        store.set(person, Schedule(horizon, slots))
    query = STGQuery(
        initiator=0,
        group_size=draw(st.integers(1, 5)),
        radius=draw(st.integers(1, 3)),
        acquaintance=draw(st.integers(0, 2)),
        activity_length=draw(st.integers(1, min(3, horizon))),
    )
    return graph, store, query


# ----------------------------------------------------------------------
# randomized equivalence
# ----------------------------------------------------------------------
class TestRandomizedEquivalence:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(sg_instances())
    def test_sgq_kernels_identical(self, instance):
        graph, query = instance
        assert_sg_equivalent(graph, query)

    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stg_instances())
    def test_stgq_kernels_identical(self, instance):
        graph, store, query = instance
        assert_stg_equivalent(graph, store, query)


class TestSeededEquivalence:
    """Denser seeded coverage of parameter corners (deterministic)."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("p,k,s", [(3, 0, 1), (5, 2, 2), (7, 1, 2), (4, 3, 3)])
    def test_sgq_grid(self, seed, p, k, s):
        graph = make_random_graph(seed, n=13, edge_prob=0.35)
        query = SGQuery(initiator=0, group_size=p, radius=s, acquaintance=k)
        assert_sg_equivalent(graph, query)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p,k,m", [(3, 0, 2), (4, 1, 3), (5, 2, 2)])
    def test_stgq_grid(self, seed, p, k, m):
        graph = make_random_graph(seed, n=11, edge_prob=0.4)
        calendars = make_random_calendars(seed + 500, list(graph), horizon=12, availability=0.6)
        query = STGQuery(initiator=0, group_size=p, radius=2, acquaintance=k, activity_length=m)
        assert_stg_equivalent(graph, calendars, query)

    @pytest.mark.parametrize(
        "toggle",
        [
            {"use_access_ordering": False},
            {"use_distance_pruning": False},
            {"use_acquaintance_pruning": False},
            {"use_availability_pruning": False},
            {"use_pivot_slots": False},
            {"theta": 0},
            {"theta": 5},
            {
                "use_access_ordering": False,
                "use_distance_pruning": False,
                "use_acquaintance_pruning": False,
                "use_availability_pruning": False,
                "use_pivot_slots": False,
            },
        ],
    )
    def test_ablation_toggles(self, toggle):
        for seed in range(4):
            graph = make_random_graph(seed, n=10, edge_prob=0.4)
            calendars = make_random_calendars(seed + 77, list(graph), horizon=10, availability=0.55)
            sg_kwargs = {key: val for key, val in toggle.items()
                         if key not in ("use_availability_pruning", "use_pivot_slots")}
            assert_sg_equivalent(
                graph,
                SGQuery(initiator=0, group_size=5, radius=2, acquaintance=1),
                **sg_kwargs,
            )
            assert_stg_equivalent(
                graph,
                calendars,
                STGQuery(initiator=0, group_size=4, radius=2, acquaintance=1, activity_length=2),
                **toggle,
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_allowed_candidates_restriction(self, seed):
        graph = make_random_graph(seed, n=12, edge_prob=0.45)
        allowed = {v for v in graph if isinstance(v, int) and v % 2 == 0}
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=2)
        assert_sg_equivalent(graph, query, allowed_candidates=allowed)


# ----------------------------------------------------------------------
# cached-form reuse (the QueryService path)
# ----------------------------------------------------------------------
class TestSharedPrecompiledForms:
    """Solvers must give identical answers when handed cached forms.

    The service caches (feasible, compiled) per ego network and passes both
    into every solve of a batch; the answers (and stats) must match a cold
    solve exactly, and a restricted candidate pool must discard the cached
    full-pool compilation rather than mis-index into it.
    """

    def _forms(self, graph, initiator, radius):
        feasible = extract_feasible_graph(graph, initiator, radius)
        return feasible, compile_feasible_graph(feasible)

    @pytest.mark.parametrize("seed", range(4))
    def test_sg_cached_forms_match_cold_solve(self, seed):
        graph = make_random_graph(seed, n=12, edge_prob=0.4)
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=1)
        solver = SGSelect(graph, _params("compiled"))
        feasible, compiled = self._forms(graph, 0, 2)
        cold = solver.solve(query)
        warm = solver.solve(query, feasible_graph=feasible, compiled_graph=compiled)
        assert warm.members == cold.members
        assert warm.total_distance == cold.total_distance
        assert _strip(warm.stats) == _strip(cold.stats)

    @pytest.mark.parametrize("seed", range(4))
    def test_stg_cached_forms_match_cold_solve(self, seed):
        graph = make_random_graph(seed, n=11, edge_prob=0.4)
        calendars = make_random_calendars(seed + 9, list(graph), horizon=10, availability=0.6)
        query = STGQuery(initiator=0, group_size=4, radius=2, acquaintance=1, activity_length=2)
        solver = STGSelect(graph, calendars, _params("compiled"))
        feasible, compiled = self._forms(graph, 0, 2)
        cold = solver.solve(query)
        warm = solver.solve(query, feasible_graph=feasible, compiled_graph=compiled)
        assert warm.members == cold.members
        assert warm.total_distance == cold.total_distance
        assert warm.period == cold.period
        assert _strip(warm.stats) == _strip(cold.stats)

    def test_restricted_pool_discards_cached_forms(self):
        graph = make_random_graph(3, n=12, edge_prob=0.45)
        allowed = {v for v in graph if isinstance(v, int) and v % 2 == 0}
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=2)
        solver = SGSelect(graph, _params("compiled"))
        feasible, compiled = self._forms(graph, 0, 2)
        restricted = solver.solve(
            query,
            allowed_candidates=allowed,
            feasible_graph=feasible,
            compiled_graph=compiled,
        )
        # The oracle never sees a compiled form, so a cached full-pool
        # compilation leaking into the restricted search would show here.
        baseline = SGSelect(graph, _params("reference")).solve(query, allowed_candidates=allowed)
        assert restricted.members <= allowed | {0}
        assert restricted.members == baseline.members
        assert restricted.total_distance == baseline.total_distance
        assert _strip(restricted.stats) == _strip(baseline.stats)


# ----------------------------------------------------------------------
# compiled-graph structure
# ----------------------------------------------------------------------
class TestCompiledGraphStructure:
    def test_access_order_and_distances(self, toy_dataset):
        feasible = extract_feasible_graph(toy_dataset.graph, "v7", 2)
        compiled = compile_feasible_graph(feasible)
        assert compiled.vertices[0] == "v7"
        assert list(compiled.vertices[1:]) == feasible.candidates
        assert compiled.dist[0] == 0.0
        # Distances ascend over candidate ids (the lowest-set-bit selection
        # rule in the kernels relies on this).
        assert list(compiled.dist[1:]) == sorted(compiled.dist[1:])

    def test_adjacency_matches_graph(self, toy_dataset):
        feasible = extract_feasible_graph(toy_dataset.graph, "v7", 2)
        compiled = compile_feasible_graph(feasible)
        for i, v in enumerate(compiled.vertices):
            neighbours = {compiled.vertices[j] for j in iter_bits(compiled.adj[i])}
            expected = set(feasible.graph.neighbors(v)) & set(compiled.vertices)
            assert neighbours == expected
            # Undirected: the bit is symmetric.
            for j in iter_bits(compiled.adj[i]):
                assert compiled.adj[j] >> i & 1

    def test_mask_round_trip(self, toy_dataset):
        feasible = extract_feasible_graph(toy_dataset.graph, "v7", 1)
        compiled = compile_feasible_graph(feasible)
        subset = list(compiled.vertices)[:: 2]
        mask = compiled.mask_of(subset)
        assert compiled.members_of(mask) == subset

    def test_bit_helpers(self):
        assert list(iter_bits(0)) == []
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert lowest_bit_index(0b1000) == 3
        assert lowest_bit_index(1 << 200) == 200
