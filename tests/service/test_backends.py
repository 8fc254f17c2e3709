"""Executor-backend tests: equivalence, locality, lifecycle.

The equivalence property test is the contract that makes backend selection a
pure deployment decision: for any seeded workload, ``serial`` and ``process``
must return identical results *and* identical aggregate search stats
(wall-clock excluded).
"""

import os
import random
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SGQuery, STGQuery
from repro.exceptions import QueryError
from repro.experiments.workloads import workload
from repro.service import (
    BACKEND_NAMES,
    ErrorResult,
    ProcessBackend,
    QueryService,
    SerialBackend,
    make_backend,
)
from repro.service.codec import response_for
from repro.service.sharding import stable_shard

#: Deterministic counters that must match across backends (``solve_seconds``
#: is wall-clock and legitimately differs).
DETERMINISTIC_COUNTERS = (
    "queries",
    "sg_queries",
    "stg_queries",
    "feasible",
    "infeasible",
    "cache_hits",
    "cache_misses",
    "nodes_expanded",
)


@pytest.fixture(scope="module")
def dataset():
    """Seeded 60-person workload shared by every test in this module."""
    return workload(network_size=60, schedule_days=1, seed=7)


def build_batch(dataset, seed: int, n_queries: int, n_initiators: int, stg_fraction: float):
    """Seeded mixed SGQ/STGQ batch over a hot set of initiators."""
    rng = random.Random(seed)
    initiators = rng.sample(list(dataset.people), n_initiators)
    batch = []
    for _ in range(n_queries):
        initiator = rng.choice(initiators)
        group_size = rng.randint(3, 5)
        if rng.random() < stg_fraction:
            batch.append(
                STGQuery(
                    initiator=initiator,
                    group_size=group_size,
                    radius=1,
                    acquaintance=2,
                    activity_length=rng.randint(1, 3),
                )
            )
        else:
            batch.append(
                SGQuery(
                    initiator=initiator, group_size=group_size, radius=1, acquaintance=2
                )
            )
    return batch


def responses(results):
    """The client-visible JSONL/HTTP response of each result."""
    return [response_for(None, result) for result in results]


def shard_batch(dataset):
    """Two SGQs owned by each of two shards, and their serial responses."""
    owners = {0: [], 1: []}
    for person in dataset.people:
        owners[stable_shard(person, 2)].append(person)
    batch = [
        SGQuery(initiator=person, group_size=3, radius=1, acquaintance=1)
        for person in owners[0][:2] + owners[1][:2]
    ]
    return batch, responses(QueryService(dataset.graph, dataset.calendars).solve_many(batch))


def run_backend(dataset, backend, batch, workers=2):
    """Solve ``batch`` on ``backend``; return (result keys, stats dict)."""
    with QueryService(
        dataset.graph, dataset.calendars, max_workers=workers, backend=backend
    ) as service:
        results = service.solve_many(batch)
        stats = service.stats().as_dict()
        info = service.cache_info()
    keys = [
        (
            result.feasible,
            result.members,
            result.total_distance,
            getattr(result, "period", None),
        )
        for result in results
    ]
    counters = {name: stats[name] for name in DETERMINISTIC_COUNTERS}
    return keys, counters, info


class TestBackendEquivalence:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n_queries=st.integers(min_value=4, max_value=24),
        n_initiators=st.integers(min_value=2, max_value=8),
        stg_fraction=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_backends_agree_on_results_and_stats(
        self, dataset, seed, n_queries, n_initiators, stg_fraction
    ):
        batch = build_batch(dataset, seed, n_queries, n_initiators, stg_fraction)
        reference_keys, reference_counters, reference_info = run_backend(
            dataset, "serial", batch
        )
        keys, counters, info = run_backend(dataset, "process", batch)
        assert keys == reference_keys, "process results diverged"
        assert counters == reference_counters, "process stats diverged"
        # Cache aggregates match too: every distinct (initiator, radius)
        # misses exactly once wherever it lives.
        assert (info.hits, info.misses) == (reference_info.hits, reference_info.misses)
        assert info.size == reference_info.size

    def test_single_solve_agrees(self, dataset):
        query = SGQuery(initiator=dataset.people[3], group_size=4, radius=2, acquaintance=1)
        reference = QueryService(dataset.graph, dataset.calendars).solve(query)
        for backend in BACKEND_NAMES:
            with QueryService(
                dataset.graph, dataset.calendars, max_workers=2, backend=backend
            ) as service:
                result = service.solve(query)
            assert result.members == reference.members
            assert result.total_distance == reference.total_distance


class TestProcessBackend:
    def test_locality_sharded_caches(self, dataset):
        # With ample cache, the workers' caches together hold exactly one
        # entry per distinct (initiator, radius) — no duplication, because
        # each initiator is owned by exactly one worker.
        batch = build_batch(dataset, seed=11, n_queries=30, n_initiators=6, stg_fraction=0.0)
        distinct = {(query.initiator, query.radius) for query in batch}
        with QueryService(
            dataset.graph, dataset.calendars, max_workers=3, backend="process"
        ) as service:
            service.solve_many(batch)
            service.solve_many(batch)  # second pass: all hits, no new entries
            info = service.cache_info()
        assert info.size == len(distinct)
        assert info.misses == len(distinct)
        assert info.hits == 2 * len(batch) - len(distinct)

    def test_stats_merge_across_batches(self, dataset):
        batch = build_batch(dataset, seed=3, n_queries=10, n_initiators=4, stg_fraction=0.5)
        with QueryService(
            dataset.graph, dataset.calendars, max_workers=2, backend="process"
        ) as service:
            service.solve_many(batch)
            service.solve_many(batch)
            stats = service.stats()
        assert stats.queries == 2 * len(batch)
        assert stats.sg_queries + stats.stg_queries == 2 * len(batch)
        assert stats.feasible + stats.infeasible == 2 * len(batch)

    def test_backend_restarts_after_close(self, dataset):
        query = SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
        service = QueryService(
            dataset.graph, dataset.calendars, max_workers=2, backend="process"
        )
        first = service.solve(query)
        service.close()
        second = service.solve(query)  # pools restart lazily
        service.close()
        assert first.members == second.members

    def test_backend_not_shared_between_services(self, dataset):
        backend = ProcessBackend(workers=2)
        query = SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            service.solve(query)
            other = QueryService(dataset.graph, dataset.calendars, backend=backend)
            with pytest.raises(QueryError):
                other.solve(query)

    def test_clear_cache_reaches_pool_workers(self):
        """Regression: clear_cache() must invalidate the workers' private
        LRUs *and* refresh their graph copies, or a post-change service
        keeps serving pre-change ego networks from the process backend.
        """
        from repro.graph import SocialGraph

        graph = SocialGraph()
        graph.add_edge(0, "far", 5.0)
        graph.add_vertex("near")
        query = SGQuery(initiator=0, group_size=2, radius=1, acquaintance=0)
        with QueryService(graph, max_workers=2, backend="process") as service:
            assert service.solve(query).members == {0, "far"}
            graph.add_edge(0, "near", 1.0)
            # The owning worker's private cache (and its private graph
            # copy) still answer with the pre-change network.
            assert service.solve(query).members == {0, "far"}
            service.clear_cache()
            fresh = service.solve(query)
            assert fresh.members == {0, "near"}
            assert fresh.total_distance == 1.0
            # Worker caches really were dropped: one entry again, rebuilt.
            assert service.cache_info().size == 1

    def test_clear_cache_before_pools_start_is_noop(self):
        from repro.graph import SocialGraph

        graph = SocialGraph()
        graph.add_edge(0, 1, 1.0)
        with QueryService(graph, max_workers=2, backend="process") as service:
            service.clear_cache()  # pools not started: nothing to clear
            assert service.solve(
                SGQuery(initiator=0, group_size=2, radius=1, acquaintance=0)
            ).feasible

    def test_stg_requires_calendars_before_submission(self, dataset):
        with QueryService(dataset.graph, max_workers=2, backend="process") as service:
            query = STGQuery(
                initiator=dataset.people[0],
                group_size=3,
                radius=1,
                acquaintance=1,
                activity_length=2,
            )
            with pytest.raises(QueryError):
                service.solve(query)
            with pytest.raises(QueryError):
                service.solve_many([query])

    def test_dead_child_fails_only_its_shard(self, dataset, monkeypatch):
        # A child that dies after a batch checked on the children (its exit
        # hidden from poll() here) fails the queries routed to it; the live
        # shard still answers, and only its answers are counted.
        batch, reference = shard_batch(dataset)
        backend = ProcessBackend(workers=2)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            service.solve(batch[0])  # starts both children
            victim = backend._children.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(10)
            monkeypatch.setattr(victim, "poll", lambda: None)
            before = service.stats().queries
            results = service.solve_many(batch)
            assert all(isinstance(r, ErrorResult) for r in results[:2])
            assert responses(results[2:]) == reference[2:]
            assert service.stats().queries - before == 2
            health = backend.worker_stats()
            assert health[0] is None and health[1] is not None
            monkeypatch.undo()
            # close() stops the survivor; the next batch restarts both.
            service.close()
            assert responses(service.solve_many(batch)) == reference
            assert all(snapshot is not None for snapshot in backend.worker_stats())

    def test_exited_child_is_restarted_by_next_batch(self, dataset):
        # The next batch sees the exit and restarts the children from the
        # service's current state, so no query reaches the dead child.
        batch, reference = shard_batch(dataset)
        backend = ProcessBackend(workers=2)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            service.solve(batch[0])  # starts both children
            victim = backend._children.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(10)
            results = service.solve_many(batch)
            assert not any(isinstance(r, ErrorResult) for r in results)
            assert responses(results) == reference
            assert all(child.poll() is None for child in backend._children.processes)


class TestBackendConstruction:
    def test_make_backend_names(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process", 2), ProcessBackend)
        assert BACKEND_NAMES == ("serial", "process")

    def test_make_backend_passthrough_instance(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_unknown_backend_rejected(self):
        with pytest.raises(QueryError):
            make_backend("gpu")
        with pytest.raises(QueryError):
            make_backend("threads")

    def test_service_rejects_unknown_backend(self, dataset):
        with pytest.raises(QueryError):
            QueryService(dataset.graph, dataset.calendars, backend="fork")

    def test_retired_thread_backend_is_rejected(self, dataset):
        # Rejected like any unknown name, never degraded to another backend;
        # the message lists the backends that do exist.
        for build in (
            lambda: make_backend("thread"),
            lambda: QueryService(dataset.graph, dataset.calendars, backend="thread"),
        ):
            with pytest.raises(QueryError, match="'thread'") as excinfo:
                build()
            for name in ("serial", "process", "remote"):
                assert name in str(excinfo.value)

    def test_service_defaults_to_serial(self, dataset):
        with QueryService(dataset.graph, dataset.calendars) as service:
            assert service.backend_name == "serial"

    def test_worker_defaults(self):
        assert SerialBackend().workers == 1
        assert ProcessBackend(3).workers == 3

    def test_service_exposes_backend(self, dataset):
        with QueryService(dataset.graph, backend="serial") as service:
            assert service.backend_name == "serial"
            assert service.backend.workers == 1
            assert service.max_workers == 1


class TestLifecycleSafetyNets:
    def test_failed_batch_never_partially_counted(self, dataset):
        # One query with an unknown initiator makes its shard raise; the
        # whole batch must be invisible in the parent stats (all-or-nothing),
        # not a partial merge of the shards that happened to succeed.
        good = build_batch(dataset, seed=9, n_queries=8, n_initiators=4, stg_fraction=0.0)
        bad = SGQuery(initiator=99999, group_size=3, radius=1, acquaintance=1)
        with QueryService(
            dataset.graph, dataset.calendars, max_workers=2, backend="process"
        ) as service:
            with pytest.raises(Exception):
                service.solve_many(good + [bad])
            assert service.stats().queries == 0
            # The service still works after the failed batch.
            results = service.solve_many(good)
            assert service.stats().queries == len(good)
        assert len(results) == len(good)
