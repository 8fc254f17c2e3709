"""Tests for the batched :class:`repro.service.QueryService`."""

import threading

import pytest

from repro.core import SearchParameters, SGQuery, SGSelect, STGQuery, STGSelect
from repro.exceptions import QueryError
from repro.graph import SocialGraph
from repro.service import QueryService

from ..conftest import make_random_calendars, make_random_graph


@pytest.fixture
def service_setup():
    graph = make_random_graph(7, n=14, edge_prob=0.4)
    calendars = make_random_calendars(11, list(graph), horizon=12, availability=0.6)
    return graph, calendars


class TestSolve:
    def test_sg_matches_direct_solver(self, service_setup):
        graph, calendars = service_setup
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=1)
        service = QueryService(graph, calendars)
        direct = SGSelect(graph).solve(query)
        served = service.solve(query)
        assert served.members == direct.members
        assert served.total_distance == direct.total_distance

    def test_stg_matches_direct_solver(self, service_setup):
        graph, calendars = service_setup
        query = STGQuery(initiator=0, group_size=3, radius=2, acquaintance=1, activity_length=2)
        service = QueryService(graph, calendars)
        direct = STGSelect(graph, calendars).solve(query)
        served = service.solve(query)
        assert served.members == direct.members
        assert served.total_distance == direct.total_distance
        assert served.period == direct.period

    def test_stg_requires_calendars(self, service_setup):
        graph, _ = service_setup
        service = QueryService(graph)
        query = STGQuery(initiator=0, group_size=3, radius=1, acquaintance=1, activity_length=2)
        with pytest.raises(QueryError):
            service.solve(query)

    def test_rejects_unknown_query_type(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        with pytest.raises(QueryError):
            service.solve("not a query")

    def test_reference_kernel_service(self, service_setup):
        graph, calendars = service_setup
        query = SGQuery(initiator=0, group_size=4, radius=2, acquaintance=1)
        compiled = QueryService(graph, calendars).solve(query)
        reference = QueryService(
            graph, calendars, parameters=SearchParameters(kernel="reference")
        ).solve(query)
        assert reference.members == compiled.members
        assert reference.total_distance == compiled.total_distance

    def test_every_kernel_serves_identically(self, service_setup):
        """The service's cached (feasible, compiled) pair feeds every kernel.

        Solving the same mixed batch through one service per kernel must
        give identical results — this is the cache-entry plumbing test:
        the compiled kernel runs off the compiled graph built at cache-miss
        time, shared by both queries of the repeated initiator.
        """
        from repro.core import VALID_KERNELS

        graph, calendars = service_setup
        queries = [
            SGQuery(initiator=0, group_size=4, radius=2, acquaintance=1),
            STGQuery(initiator=0, group_size=3, radius=2, acquaintance=1, activity_length=2),
        ]
        per_kernel = {}
        for kernel in VALID_KERNELS:
            with QueryService(
                graph, calendars, parameters=SearchParameters(kernel=kernel)
            ) as service:
                results = service.solve_many(queries)
                info = service.cache_info()
            assert info.misses == 1 and info.hits == 1  # one shared ego network
            per_kernel[kernel] = [
                (r.members, r.total_distance, getattr(r, "period", None)) for r in results
            ]
        baseline = per_kernel["compiled"]
        for kernel, keys in per_kernel.items():
            assert keys == baseline, f"kernel {kernel} diverged through the service"


class TestCache:
    def test_repeat_initiator_hits_cache(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        for p in (3, 4, 5):
            service.solve(SGQuery(initiator=0, group_size=p, radius=2, acquaintance=1))
        info = service.cache_info()
        assert info.misses == 1
        assert info.hits == 2
        assert info.size == 1
        assert info.hit_rate == pytest.approx(2 / 3)

    def test_distinct_radius_is_distinct_entry(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        service.solve(SGQuery(initiator=0, group_size=3, radius=1, acquaintance=1))
        service.solve(SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1))
        info = service.cache_info()
        assert info.misses == 2
        assert info.size == 2

    def test_lru_eviction(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars, cache_size=2)
        for initiator in (0, 1, 2):
            service.solve(SGQuery(initiator=initiator, group_size=3, radius=1, acquaintance=1))
        info = service.cache_info()
        assert info.size == 2
        # Initiator 0 was evicted; querying it again misses.
        service.solve(SGQuery(initiator=0, group_size=3, radius=1, acquaintance=1))
        assert service.cache_info().misses == 4

    def test_clear_cache(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        service.solve(SGQuery(initiator=0, group_size=3, radius=1, acquaintance=1))
        service.clear_cache()
        assert service.cache_info().size == 0
        service.solve(SGQuery(initiator=0, group_size=3, radius=1, acquaintance=1))
        assert service.cache_info().misses == 2

    def test_cache_size_validation(self, service_setup):
        graph, calendars = service_setup
        with pytest.raises(QueryError):
            QueryService(graph, calendars, cache_size=0)


def _mutable_graph():
    """Tiny graph where a later mutation changes the optimal group.

    ``SGQ(p=2, s=1, k=0)`` from ``0`` initially selects ``"far"`` (distance
    5); after ``add_edge(0, "near", 1)`` the fresh answer is ``"near"`` —
    but only if the cached ego network was actually dropped.
    """
    graph = SocialGraph()
    graph.add_edge(0, "far", 5.0)
    graph.add_vertex("near")
    return graph


MUTATION_QUERY = SGQuery(initiator=0, group_size=2, radius=1, acquaintance=0)


class TestClearCacheInvalidation:
    """clear_cache() + a mutated-graph reload must serve fresh results."""

    @pytest.mark.parametrize("backend", ["serial"])
    def test_mutated_graph_reload_in_process_backends(self, backend):
        graph = _mutable_graph()
        with QueryService(graph, backend=backend, max_workers=2) as service:
            before = service.solve(MUTATION_QUERY)
            assert before.members == {0, "far"}
            graph.add_edge(0, "near", 1.0)
            # Without the clear the stale ego network keeps answering.
            assert service.solve(MUTATION_QUERY).members == {0, "far"}
            service.clear_cache()
            after = service.solve(MUTATION_QUERY)
            assert after.members == {0, "near"}
            assert after.total_distance == 1.0

    def test_inflight_build_does_not_reinsert_stale_entry(self, monkeypatch):
        """A build racing clear_cache() must not resurrect its entry.

        The build is paused deterministically with events: it starts, the
        cache is cleared mid-build, the build finishes — its caller still
        gets an answer, but the (pre-clear) entry must not be inserted, and
        the next lookup must rebuild from the current graph.
        """
        import repro.service.query_service as qs_module

        graph, calendars = make_random_graph(7, n=10, edge_prob=0.4), None
        service = QueryService(graph, calendars, backend="serial")
        started = threading.Event()
        release = threading.Event()
        real_extract = qs_module.extract_query_forms

        def paused_extract(g, initiator, radius, kernel):
            started.set()
            assert release.wait(10), "test deadlock: build never released"
            return real_extract(g, initiator, radius, kernel)

        monkeypatch.setattr(qs_module, "extract_query_forms", paused_extract)
        query = SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1)
        results = []
        worker = threading.Thread(target=lambda: results.append(service.solve(query)))
        worker.start()
        assert started.wait(10), "build never started"
        service.clear_cache()  # races the in-flight build
        release.set()
        worker.join(10)
        assert not worker.is_alive()
        assert results and results[0].solver == "SGSelect"
        # The stale entry must not have been re-inserted ...
        assert service.cache_info().size == 0
        # ... and the next solve is a fresh miss that does get cached.
        service.solve(query)
        info = service.cache_info()
        assert info.size == 1
        assert info.misses == 2
        assert info.hits == 0

    def test_waiter_blocked_on_cleared_build_recovers(self, monkeypatch):
        """_pending_builds events must not strand waiters across a clear.

        A second caller waiting on the paused build must, after the clear,
        rebuild instead of adopting the stale result — both lookups count
        as misses, never a hit on a cleared entry.
        """
        import repro.service.query_service as qs_module

        graph = make_random_graph(11, n=10, edge_prob=0.4)
        service = QueryService(graph, backend="serial")
        started = threading.Event()
        release = threading.Event()
        real_extract = qs_module.extract_query_forms

        def paused_extract(g, initiator, radius, kernel):
            started.set()
            assert release.wait(10), "test deadlock: build never released"
            return real_extract(g, initiator, radius, kernel)

        monkeypatch.setattr(qs_module, "extract_query_forms", paused_extract)
        query = SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1)
        threads = [
            threading.Thread(target=service.solve, args=(query,)) for _ in range(2)
        ]
        threads[0].start()
        assert started.wait(10)
        threads[1].start()  # becomes either a waiter or, post-clear, a builder
        service.clear_cache()
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        info = service.cache_info()
        assert info.hits == 0
        assert info.misses == 2
        assert info.size == 1  # the post-clear rebuild was cached normally

    def test_shared_cache_across_query_kinds(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        service.solve(SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1))
        service.solve(
            STGQuery(initiator=0, group_size=3, radius=2, acquaintance=1, activity_length=2)
        )
        info = service.cache_info()
        assert info.misses == 1
        assert info.hits == 1


class TestSolveMany:
    def _batch(self, graph):
        return [
            SGQuery(initiator=initiator, group_size=p, radius=2, acquaintance=1)
            for initiator in (0, 1, 2, 3)
            for p in (3, 4, 5)
        ]

    def test_results_in_submission_order(self, service_setup):
        graph, calendars = service_setup
        queries = self._batch(graph)
        service = QueryService(graph, calendars, max_workers=4)
        results = service.solve_many(queries)
        assert len(results) == len(queries)
        sequential = [SGSelect(graph).solve(q) for q in queries]
        for got, want in zip(results, sequential):
            assert got.feasible == want.feasible
            assert got.members == want.members
            assert got.total_distance == want.total_distance

    def test_single_worker_path(self, service_setup):
        graph, calendars = service_setup
        queries = self._batch(graph)
        service = QueryService(graph, calendars, max_workers=1)
        results = service.solve_many(queries)
        assert [r.members for r in results] == [
            SGSelect(graph).solve(q).members for q in queries
        ]

    def test_empty_batch(self, service_setup):
        graph, calendars = service_setup
        assert QueryService(graph, calendars).solve_many([]) == []

    def test_mixed_batch(self, service_setup):
        graph, calendars = service_setup
        queries = [
            SGQuery(initiator=0, group_size=3, radius=2, acquaintance=1),
            STGQuery(initiator=0, group_size=3, radius=2, acquaintance=1, activity_length=2),
        ]
        service = QueryService(graph, calendars)
        sg_result, stg_result = service.solve_many(queries)
        assert sg_result.solver == "SGSelect"
        assert stg_result.solver == "STGSelect"
        stats = service.stats()
        assert stats.sg_queries == 1
        assert stats.stg_queries == 1


class TestStats:
    def test_counters_accumulate(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        queries = [
            SGQuery(initiator=initiator, group_size=3, radius=1, acquaintance=1)
            for initiator in (0, 1, 0)
        ]
        results = service.solve_many(queries)
        stats = service.stats()
        assert stats.queries == 3
        assert stats.sg_queries == 3
        assert stats.feasible == sum(1 for r in results if r.feasible)
        assert stats.infeasible == 3 - stats.feasible
        assert stats.solve_seconds >= 0.0
        assert isinstance(stats.as_dict(), dict)

    def test_stats_returns_copy(self, service_setup):
        graph, calendars = service_setup
        service = QueryService(graph, calendars)
        snapshot = service.stats()
        service.solve(SGQuery(initiator=0, group_size=3, radius=1, acquaintance=1))
        assert snapshot.queries == 0
        assert service.stats().queries == 1
