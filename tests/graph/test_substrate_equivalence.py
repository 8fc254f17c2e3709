"""Byte-identical results across graph substrates (dict vs CSR).

The CSR substrate is a drop-in for :class:`SocialGraph` from the loaders to
the workers, so the assertions here mirror the kernel-equivalence suite's
strictness: identical bounded-distance maps, identical feasible graphs
(including vertex *order* — candidate tie-breaks depend on it), identical
SGQ/STGQ results with identical search statistics, and identical batches
through a :class:`QueryService` whether the graph is the adjacency dict or
an mmap'd ``.stgq`` file behind the process backend.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery, STGSelect
from repro.graph import (
    GraphOverlay,
    SocialGraph,
    bounded_distances,
    csr_available,
    extract_feasible_graph,
    extract_query_forms,
    hop_counts,
)
from repro.temporal import CalendarStore, Schedule

from ..conftest import make_random_calendars, make_random_graph

pytestmark = pytest.mark.skipif(not csr_available(), reason="CSR substrate needs numpy")


def _csr(graph):
    from repro.graph.csr import CSRGraph

    return CSRGraph.from_social_graph(graph)


def _strip(stats):
    d = stats.as_dict()
    d.pop("elapsed_seconds")
    return d


def assert_extraction_identical(graph, source, radius):
    """The FeasibleGraph must match exactly, substrate notwithstanding."""
    fd = extract_feasible_graph(graph, source, radius)
    fc = extract_feasible_graph(_csr(graph), source, radius)
    assert fd.distances == fc.distances
    assert list(fd.distances) == list(fc.distances)  # canonical vertex order
    assert fd.graph.vertices() == fc.graph.vertices()
    assert fd.candidates == fc.candidates  # ties included
    for v in fd.graph:
        assert fd.graph.adjacency(v) == fc.graph.adjacency(v)
    return fd, fc


def assert_sg_identical(graph, query, **param_kwargs):
    params = SearchParameters(**param_kwargs)
    rd = SGSelect(graph, params).solve(query)
    rc = SGSelect(_csr(graph), params).solve(query)
    assert rc.feasible == rd.feasible
    assert rc.members == rd.members
    assert rc.total_distance == rd.total_distance
    assert _strip(rc.stats) == _strip(rd.stats)
    return rd


def assert_stg_identical(graph, calendars, query, **param_kwargs):
    params = SearchParameters(**param_kwargs)
    rd = STGSelect(graph, calendars, params).solve(query)
    rc = STGSelect(_csr(graph), calendars, params).solve(query)
    assert rc.feasible == rd.feasible
    assert rc.members == rd.members
    assert rc.total_distance == rd.total_distance
    assert rc.period == rd.period
    assert rc.pivot == rd.pivot
    assert rc.shared_slots == rd.shared_slots
    assert _strip(rc.stats) == _strip(rd.stats)
    return rd


@st.composite
def int_graphs(draw, min_vertices=4, max_vertices=10):
    """Random int-vertex graphs; small distance range forces distance ties,
    the case where candidate order (and with it the whole search) would
    diverge between substrates without the canonical extraction order."""
    n = draw(st.integers(min_vertices, max_vertices))
    graph = SocialGraph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.integers(1, 4)))
    return graph


class TestDistances:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_bounded_distances_equal(self, seed, radius):
        graph = make_random_graph(seed, n=13, edge_prob=0.35)
        assert bounded_distances(_csr(graph), 0, radius) == bounded_distances(graph, 0, radius)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(int_graphs(), st.integers(1, 4))
    def test_bounded_distances_equal_hypothesis(self, graph, radius):
        assert bounded_distances(_csr(graph), 0, radius) == bounded_distances(graph, 0, radius)


class TestExtraction:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_seeded_grid(self, seed, radius):
        graph = make_random_graph(seed, n=13, edge_prob=0.35)
        assert_extraction_identical(graph, 0, radius)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(int_graphs(), st.integers(1, 3))
    def test_hypothesis_graphs(self, graph, radius):
        assert_extraction_identical(graph, 0, radius)

    def test_tie_heavy_graph_candidate_order(self):
        # Unit distances everywhere: every candidate ties, so the order is
        # purely the canonical one — ascending id on both substrates.
        graph = SocialGraph(vertices=range(8))
        for v in range(1, 8):
            graph.add_edge(0, v, 1.0)
        fd, fc = assert_extraction_identical(graph, 0, 1)
        assert fd.candidates == sorted(fd.candidates)


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("p,k,s", [(3, 0, 1), (5, 2, 2), (4, 3, 3)])
    def test_sgq_grid(self, seed, p, k, s):
        graph = make_random_graph(seed, n=13, edge_prob=0.35)
        assert_sg_identical(graph, SGQuery(initiator=0, group_size=p, radius=s, acquaintance=k))

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("p,k,m", [(3, 0, 2), (4, 1, 3), (5, 2, 2)])
    def test_stgq_grid(self, seed, p, k, m):
        graph = make_random_graph(seed, n=11, edge_prob=0.4)
        calendars = make_random_calendars(seed + 500, list(graph), horizon=12, availability=0.6)
        query = STGQuery(initiator=0, group_size=p, radius=2, acquaintance=k, activity_length=m)
        assert_stg_identical(graph, calendars, query)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(int_graphs(), st.integers(1, 5), st.integers(1, 3), st.integers(0, 2))
    def test_sgq_hypothesis(self, graph, p, s, k):
        assert_sg_identical(graph, SGQuery(initiator=0, group_size=p, radius=s, acquaintance=k))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(int_graphs(max_vertices=8), st.data())
    def test_stgq_hypothesis(self, graph, data):
        horizon = data.draw(st.integers(4, 10))
        store = CalendarStore(horizon)
        for person in graph:
            slots = data.draw(st.lists(st.integers(1, horizon), unique=True, max_size=horizon))
            store.set(person, Schedule(horizon, slots))
        query = STGQuery(
            initiator=0,
            group_size=data.draw(st.integers(1, 5)),
            radius=data.draw(st.integers(1, 3)),
            acquaintance=data.draw(st.integers(0, 2)),
            activity_length=data.draw(st.integers(1, min(3, horizon))),
        )
        assert_stg_identical(graph, store, query)


class TestServiceOverSubstrate:
    """A service batch answers identically from the dict graph on the serial
    backend and from a path-backed (mmap'd) CSR substrate on the process
    backend — results and merged stats both."""

    @pytest.fixture
    def workload(self, tmp_path):
        from repro.graph.csr import pack_graph

        graph = make_random_graph(21, n=24, edge_prob=0.3)
        calendars = make_random_calendars(22, list(graph), horizon=12, availability=0.6)
        csr = pack_graph(graph, tmp_path / "g.stgq")
        queries = []
        for i in range(12):
            if i % 2:
                queries.append(
                    SGQuery(initiator=i % 5, group_size=3, radius=2, acquaintance=2)
                )
            else:
                queries.append(
                    STGQuery(
                        initiator=i % 5, group_size=3, radius=2, acquaintance=2,
                        activity_length=2,
                    )
                )
        return graph, calendars, csr, queries

    def _solve(self, graph, calendars, queries, backend, workers=None):
        from repro.service import QueryService

        service = QueryService(graph, calendars, backend=backend, max_workers=workers)
        with service:
            results = service.solve_many(queries)
            stats = service.stats()
        return results, stats

    def test_process_backend_over_substrate_matches_serial_dict(self, workload):
        graph, calendars, csr, queries = workload
        serial_results, serial_stats = self._solve(graph, calendars, queries, "serial")
        process_results, process_stats = self._solve(csr, calendars, queries, "process", workers=2)
        for rs, rp in zip(serial_results, process_results):
            assert rp.feasible == rs.feasible
            assert rp.members == rs.members
            assert rp.total_distance == rs.total_distance
            assert getattr(rp, "period", None) == getattr(rs, "period", None)
        sd, pd = serial_stats.as_dict(), process_stats.as_dict()
        for d in (sd, pd):
            d.pop("solve_seconds", None)
            d.pop("elapsed_seconds", None)
        assert pd == sd

    def test_serial_backend_over_substrate_matches_dict(self, workload):
        graph, calendars, csr, queries = workload
        dict_results, _ = self._solve(graph, calendars, queries, "serial")
        csr_results, _ = self._solve(csr, calendars, queries, "serial")
        for rd, rc in zip(dict_results, csr_results):
            assert rc.members == rd.members
            assert rc.total_distance == rd.total_distance


def assert_overlay_identical(oc, od, source, radius):
    """Overlay-over-CSR (vectorised lane) vs overlay-over-dict (generic)."""
    assert bounded_distances(oc, source, radius) == bounded_distances(od, source, radius)
    assert hop_counts(oc, source, max_edges=radius) == hop_counts(od, source, max_edges=radius)
    fc = extract_feasible_graph(oc, source, radius)
    fd = extract_feasible_graph(od, source, radius)
    assert fd.distances == fc.distances
    assert list(fd.distances) == list(fc.distances)
    assert fd.candidates == fc.candidates
    for v in fd.graph:
        assert fd.graph.adjacency(v) == fc.graph.adjacency(v)


class TestOverlayOnCSR:
    """The overlay fast path (vectorised clean rows + scalar dirty patching)
    must answer exactly like the same edits replayed on the dict substrate."""

    def _pair(self, seed=3, n=14):
        graph = make_random_graph(seed, n=n, edge_prob=0.35)
        return GraphOverlay(_csr(graph)), GraphOverlay(graph)

    def test_mutated_base_weights(self):
        oc, od = self._pair()
        for overlay in (oc, od):
            overlay.add_edge(0, 1, 0.125)  # re-weight edges near the source
            overlay.add_edge(2, 5, 9.5)
        assert_overlay_identical(oc, od, 0, 2)

    def test_tombstoned_edges_inside_radius(self):
        oc, od = self._pair(seed=4)
        base = od.base
        victims = [(u, v) for u in (0, 1) for v in base.neighbors(u)][:3]
        for overlay in (oc, od):
            for u, v in victims:
                if overlay.has_edge(u, v):
                    overlay.remove_edge(u, v)
        assert_overlay_identical(oc, od, 0, 2)

    def test_extra_vertices_reachable(self):
        oc, od = self._pair(seed=5)
        for overlay in (oc, od):
            overlay.add_vertex(100)
            overlay.add_vertex(101)
            overlay.add_edge(0, 100, 0.5)
            overlay.add_edge(100, 101, 0.5)
        assert_overlay_identical(oc, od, 0, 2)
        assert_overlay_identical(oc, od, 100, 2)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_mixed_edit_grid(self, seed, radius):
        import random

        oc, od = self._pair(seed=seed)
        rng = random.Random(seed * 37 + radius)
        for _ in range(6):
            u, v = rng.sample(range(14), 2)
            if rng.random() < 0.5 and od.has_edge(u, v):
                for overlay in (oc, od):
                    overlay.remove_edge(u, v)
            else:
                w = rng.choice([0.25, 1.0, 3.5])
                for overlay in (oc, od):
                    overlay.add_edge(u, v, w)
        assert_overlay_identical(oc, od, 0, radius)


class TestValidationContract:
    """max_edges validation is aligned across dict, CSR and overlay:
    bounded_distances requires >= 1; hop_counts takes None (unlimited) or
    >= 0 (0 reaches only the source) and rejects negatives everywhere."""

    @pytest.fixture
    def substrates(self):
        graph = make_random_graph(0, n=8, edge_prob=0.5)
        dirty = GraphOverlay(_csr(graph))
        dirty.add_edge(0, 1, 0.5)
        return [graph, _csr(graph), GraphOverlay(_csr(graph)), dirty]

    @pytest.mark.parametrize("bad", [0, -1])
    def test_bounded_distances_rejects_nonpositive(self, substrates, bad):
        for graph in substrates:
            with pytest.raises(ValueError):
                bounded_distances(graph, 0, bad)

    def test_hop_counts_rejects_negative(self, substrates):
        for graph in substrates:
            with pytest.raises(ValueError):
                hop_counts(graph, 0, max_edges=-1)

    def test_hop_counts_zero_reaches_only_source(self, substrates):
        for graph in substrates:
            assert hop_counts(graph, 0, max_edges=0) == {0: 0}

    def test_hop_counts_none_is_unlimited(self, substrates):
        graph, csr, clean, dirty = substrates
        reference = hop_counts(graph, 0)
        assert hop_counts(csr, 0) == reference
        assert hop_counts(clean, 0) == reference
        edited = GraphOverlay(graph)
        edited.add_edge(0, 1, 0.5)
        assert hop_counts(dirty, 0) == hop_counts(edited, 0)


class TestScaleSpotCheck:
    """A 10^5-vertex seeded graph: the CSR extraction fast lane must produce
    byte-identical query forms to the dict generic path — feasible graph and
    compiled bitmasks alike."""

    def test_100k_extraction_byte_identical(self):
        from repro.datasets import generate_scale_dataset

        csr = generate_scale_dataset(100_000, seed=7).graph
        dict_graph = csr.to_social_graph()
        # 1009's radius-2 ego holds ~6.5k vertices; 31337's is a sparse
        # fringe of ~80 — one dense and one shallow neighbourhood, while
        # keeping the compiled-form comparison affordable for tier 1.
        for initiator in (1009, 31_337):
            fd, cd = extract_query_forms(dict_graph, initiator, 2, kernel="compiled")
            fc, cc = extract_query_forms(csr, initiator, 2, kernel="compiled")
            assert fd.distances == fc.distances
            assert list(fd.distances) == list(fc.distances)
            assert fd.candidates == fc.candidates
            for v in fd.graph:
                assert fd.graph.adjacency(v) == fc.graph.adjacency(v)
            assert cc.vertices == cd.vertices
            assert cc.index == cd.index
            assert cc.dist == cd.dist
            assert cc.adj == cd.adj
            assert cc.candidate_mask == cd.candidate_mask
