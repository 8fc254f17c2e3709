"""Live-graph mutation tests: targeted invalidation, deltas, catch-up, wire.

Covers the four edge cases the live-graph contract names (mutating a vertex
inside an in-flight ego build, delta applied twice, version-gap fallback,
``remove_edge`` on a missing edge) plus the exact-eviction accounting the
reverse vertex index promises.  Every test builds its *own* dataset —
mutating the module-level memoized ``workload()`` would poison other tests.
"""

import threading
from types import SimpleNamespace

import pytest

from repro.core import SGQuery
from repro.exceptions import (
    GraphError,
    ProtocolError,
    QueryError,
    WorkerUnavailableError,
)
from repro.graph import (
    GraphOverlay,
    Mutation,
    MutationBatch,
    SocialGraph,
    graph_to_snapshot,
)
from repro.graph.csr import csr_available
from repro.service import MUTATION_LOG_CAPACITY, QueryService, RemoteBackend
from repro.service.net.protocol import PROTOCOL_VERSION, recv_frame, send_frame

from ..conftest import make_random_calendars, make_random_graph
from .test_net import WorkerHarness, _client_socket


def path_service(**kwargs):
    """Serial service over the path graph 0-1-2-3-4-5 (unit distances)."""
    graph = SocialGraph([(i, i + 1, 1.0) for i in range(5)])
    return QueryService(graph, backend="serial", **kwargs)


def radius1_queries(initiators):
    return [
        SGQuery(initiator=i, group_size=2, radius=1, acquaintance=0) for i in initiators
    ]


def canon_edges(graph):
    return sorted((*sorted((u, v), key=repr), d) for u, v, d in graph.edges())


def fresh_dataset(seed=21, n=24):
    """Seeded dataset; equal-but-distinct per call (never the cached workload)."""
    graph = make_random_graph(seed, n=n, edge_prob=0.3)
    calendars = make_random_calendars(seed, graph.vertices(), horizon=10)
    return SimpleNamespace(graph=graph, calendars=calendars)


# ----------------------------------------------------------------------
# targeted invalidation accounting
# ----------------------------------------------------------------------
class TestTargetedInvalidation:
    def test_remove_edge_evicts_exactly_the_containing_egos(self):
        with path_service() as service:
            service.solve_many(radius1_queries(range(6)))
            assert service.cache_info().size == 6
            # remove_edge(0, 1) touches {0, 1}; the radius-1 egos containing
            # either are exactly those of initiators 0, 1 and 2.
            report = service.apply_mutations([Mutation.remove_edge(0, 1)])
            assert report.mutations == 1
            assert report.invalidated == 3
            assert report.from_version == 0 and report.to_version == 1
            assert service.cache_info().size == 3
            stats = service.stats()
            assert stats.mutations == 1
            assert stats.invalidations == 3
            # An untouched ego is still a cache hit.
            before = service.cache_info().hits
            service.solve(radius1_queries([4])[0])
            assert service.cache_info().hits == before + 1

    def test_add_edge_evicts_both_endpoint_neighbourhoods(self):
        with path_service() as service:
            service.solve_many(radius1_queries(range(6)))
            # add_edge(0, 5) touches {0, 5}: egos of 0, 1 (contain 0) and
            # 4, 5 (contain 5).
            report = service.apply_mutations([Mutation.add_edge(0, 5, 2.0)])
            assert report.invalidated == 4
            assert service.cache_info().size == 2
            # The rebuilt ego sees the new edge.
            result = service.solve(radius1_queries([0])[0])
            assert result.members == {0, 1}  # nearest neighbour still 1

    def test_availability_mutation_evicts_nothing(self):
        dataset = fresh_dataset(31, n=12)
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            service.solve_many(radius1_queries(dataset.graph.vertices()))
            warm = service.cache_info().size
            assert warm > 0
            report = service.apply_mutations(
                [Mutation.update_availability(0, (1, 2, 3))]
            )
            # Topology-only feasible graphs: calendars are read live by the
            # solvers, so no cached ego went stale.
            assert report.invalidated == 0
            assert service.cache_info().size == warm
            assert service.live_version == 1
            assert dataset.calendars.get(0).available_slots() == [1, 2, 3]


# ----------------------------------------------------------------------
# edge case: mutating a vertex inside an in-flight ego build
# ----------------------------------------------------------------------
class TestInFlightBuilds:
    def _paused_service(self, monkeypatch):
        import repro.service.query_service as qs_module

        service = path_service()
        started = threading.Event()
        release = threading.Event()
        real_extract = qs_module.extract_query_forms

        def paused_extract(g, initiator, radius, kernel):
            started.set()
            assert release.wait(10), "test deadlock: build never released"
            return real_extract(g, initiator, radius, kernel)

        monkeypatch.setattr(qs_module, "extract_query_forms", paused_extract)
        return service, started, release

    def test_mutation_inside_inflight_ego_skips_insert(self, monkeypatch):
        service, started, release = self._paused_service(monkeypatch)
        with service:
            # Ego of initiator 0 at radius 2 is {0, 1, 2}.
            query = SGQuery(initiator=0, group_size=2, radius=2, acquaintance=0)
            results = []
            builder = threading.Thread(target=lambda: results.append(service.solve(query)))
            builder.start()
            assert started.wait(10), "build never started"
            # The mutation touches vertices 1 and 2 — inside the in-flight
            # ego — so its epoch stamp must veto the insert.
            service.apply_mutations([Mutation.remove_edge(1, 2)])
            release.set()
            builder.join(10)
            assert not builder.is_alive()
            assert results, "builder thread produced no result"
            assert service.cache_info().size == 0
            # The next solve is a fresh miss against the mutated graph.
            after = service.solve(query)
            assert service.cache_info().size == 1
            assert after.members == {0, 1}  # vertex 2 is unreachable now

    def test_mutation_outside_ego_lets_insert_proceed(self, monkeypatch):
        service, started, release = self._paused_service(monkeypatch)
        with service:
            query = SGQuery(initiator=0, group_size=2, radius=2, acquaintance=0)
            builder = threading.Thread(target=service.solve, args=(query,))
            builder.start()
            assert started.wait(10)
            # Touches {4, 5}, disjoint from the ego {0, 1, 2}: no veto.
            service.apply_mutations([Mutation.remove_edge(4, 5)])
            release.set()
            builder.join(10)
            assert not builder.is_alive()
            assert service.cache_info().size == 1
            before = service.cache_info().hits
            service.solve(query)
            assert service.cache_info().hits == before + 1


# ----------------------------------------------------------------------
# edge case: remove_edge on a nonexistent edge (prefix semantics)
# ----------------------------------------------------------------------
class TestPrefixSemantics:
    def test_missing_edge_raises_after_distributing_prefix(self):
        with path_service() as service:
            run = [
                Mutation.add_edge(0, 3, 2.0),
                Mutation.remove_edge(4, 5),
                Mutation.remove_edge(0, 5),  # never existed -> GraphError
                Mutation.add_edge(1, 4, 1.0),  # must NOT be applied
            ]
            with pytest.raises(GraphError):
                service.apply_mutations(run)
            # The applied prefix is versioned and logged ...
            assert service.live_version == 2
            chain = service.mutation_log_since(0)
            assert chain is not None and len(chain) == 1
            assert chain[0].from_version == 0 and chain[0].to_version == 2
            assert chain[0].mutations == tuple(run[:2])
            # ... and the graph reflects exactly that prefix.
            assert service.graph.has_edge(0, 3)
            assert not service.graph.has_edge(4, 5)
            assert not service.graph.has_edge(1, 4)
            assert service.stats().mutations == 2

    def test_failing_first_mutation_advances_nothing(self):
        with path_service() as service:
            with pytest.raises(GraphError):
                service.apply_mutations([Mutation.remove_edge(0, 5)])
            assert service.live_version == 0
            assert service.mutation_log_since(0) == []

    def test_non_mutation_input_rejected_up_front(self):
        with path_service() as service:
            with pytest.raises(QueryError):
                service.apply_mutations([Mutation.add_edge(0, 2, 1.0), "nope"])
            assert service.live_version == 0


# ----------------------------------------------------------------------
# edge case: delta applied twice (idempotence) + version gaps
# ----------------------------------------------------------------------
class TestDeltaIdempotence:
    def test_delta_applied_twice_is_a_noop(self):
        source, replica = path_service(), path_service()
        with source, replica:
            replica.solve_many(radius1_queries(range(6)))
            source.apply_mutations(
                [Mutation.remove_edge(0, 1), Mutation.add_edge(2, 4, 1.5)]
            )
            (batch,) = source.mutation_log_since(0)
            status, evicted = replica.apply_delta(batch)
            assert status == "applied"
            assert evicted > 0
            assert replica.live_version == source.live_version == 2
            assert canon_edges(replica.graph) == canon_edges(source.graph)
            # The retried frame changes nothing.
            assert replica.apply_delta(batch) == ("noop", 0)
            assert replica.live_version == 2
            assert canon_edges(replica.graph) == canon_edges(source.graph)

    def test_future_delta_reports_a_gap(self):
        with path_service() as replica:
            batch = MutationBatch(5, 6, (Mutation.remove_edge(0, 1),))
            assert replica.apply_delta(batch) == ("gap", 0)
            assert replica.live_version == 0
            assert replica.graph.has_edge(0, 1)  # untouched


class TestMutationLog:
    def test_log_chains_from_batch_boundaries_only(self):
        with path_service() as service:
            service.apply_mutations([Mutation.remove_edge(0, 1), Mutation.add_edge(0, 2, 1.0)])
            service.apply_mutations([Mutation.add_edge(0, 1, 9.0)])
            assert [
                (b.from_version, b.to_version) for b in service.mutation_log_since(0)
            ] == [(0, 2), (2, 3)]
            assert [
                (b.from_version, b.to_version) for b in service.mutation_log_since(2)
            ] == [(2, 3)]
            assert service.mutation_log_since(3) == []  # already current
            assert service.mutation_log_since(1) is None  # mid-batch: no boundary
            assert service.mutation_log_since(4) is None  # from the future

    def test_log_evicts_beyond_capacity(self):
        with path_service() as service:
            # Toggle one edge so every mutation is valid; one batch each.
            for i in range(MUTATION_LOG_CAPACITY + 2):
                if i % 2 == 0:
                    service.apply_mutations([Mutation.add_edge(0, 5, 1.0)])
                else:
                    service.apply_mutations([Mutation.remove_edge(0, 5)])
            assert service.live_version == MUTATION_LOG_CAPACITY + 2
            assert service.mutation_log_since(0) is None  # tail fell off
            assert len(service.mutation_log_since(2)) == MUTATION_LOG_CAPACITY


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    def test_snapshot_transfers_state_and_pins_version(self):
        source_data, replica_data = fresh_dataset(41), fresh_dataset(41)
        source = QueryService(source_data.graph, source_data.calendars, backend="serial")
        replica = QueryService(replica_data.graph, replica_data.calendars, backend="serial")
        with source, replica:
            source.apply_mutations(
                [
                    Mutation.add_edge(0, 23, 1.0),
                    Mutation.update_availability(3, (2, 4, 6)),
                ]
            )
            replica.solve_many(radius1_queries(range(6)))
            warm = replica.cache_info().size
            dropped = replica.apply_snapshot(source.snapshot_payload())
            assert dropped == warm
            assert replica.cache_info().size == 0
            assert replica.live_version == source.live_version == 2
            assert canon_edges(replica.graph) == canon_edges(source.graph)
            assert replica_data.calendars.get(3).available_slots() == [2, 4, 6]
            # The log restarts at the snapshot: nothing older can be served.
            assert replica.mutation_log_since(0) is None
            assert replica.mutation_log_since(2) == []

    def test_snapshot_without_version_is_rejected(self):
        with path_service() as service:
            with pytest.raises(ProtocolError):
                service.apply_snapshot({"vertices": [], "edges": []})


# ----------------------------------------------------------------------
# immutable substrates get wrapped in an overlay automatically
# ----------------------------------------------------------------------
@pytest.mark.skipif(not csr_available(), reason="numpy not installed")
class TestOverlayAutoWrap:
    def test_edge_mutation_wraps_csr_substrate(self, tmp_path):
        from repro.graph.csr import load_stgq, pack_graph

        base = make_random_graph(51, n=12, edge_prob=0.4)
        pack_graph(base, tmp_path / "g.stgq")
        csr = load_stgq(tmp_path / "g.stgq", mmap=True)
        with QueryService(csr, backend="serial") as service:
            u, v, _ = base.edges()[0]
            service.apply_mutations([Mutation.remove_edge(u, v)])
            assert isinstance(service.graph, GraphOverlay)
            assert service.graph.base is csr
            assert not service.graph.has_edge(u, v)
            assert csr.has_edge(u, v)  # the mmap'd file is untouched

    def test_availability_only_run_does_not_wrap(self, tmp_path):
        from repro.graph.csr import load_stgq, pack_graph

        base = make_random_graph(53, n=12, edge_prob=0.4)
        pack_graph(base, tmp_path / "g.stgq")
        csr = load_stgq(tmp_path / "g.stgq", mmap=True)
        calendars = make_random_calendars(53, base.vertices(), horizon=10)
        with QueryService(csr, calendars, backend="serial") as service:
            service.apply_mutations([Mutation.update_availability(0, (1,))])
            assert service.graph is csr  # no overlay needed


# ----------------------------------------------------------------------
# distribution over the wire (real WorkerServer + RemoteBackend)
# ----------------------------------------------------------------------
class TestRemoteDistribution:
    @pytest.fixture
    def fleet(self):
        workers = [WorkerHarness(fresh_dataset()).start() for _ in range(2)]
        gateway_data = fresh_dataset()
        backend = RemoteBackend([w.address for w in workers], timeout=30.0)
        gateway = QueryService(
            gateway_data.graph, gateway_data.calendars, backend=backend
        )
        yield gateway, workers
        gateway.close()
        for worker in workers:
            try:
                worker.stop()  # a no-op for a worker the test already stopped
            except Exception:
                pass

    def test_deltas_reach_every_worker(self, fleet):
        gateway, workers = fleet
        queries = radius1_queries(range(8))
        gateway.solve_many(queries)  # warm the worker caches
        report = gateway.apply_mutations(
            [Mutation.remove_edge(*gateway.graph.edges()[0][:2]), Mutation.add_edge(0, 23, 1.0)]
        )
        assert report.to_version == 2
        for worker in workers:
            assert worker.service.live_version == 2
            assert canon_edges(worker.service.graph) == canon_edges(gateway.graph)
        # Post-mutation answers match a from-scratch serial rebuild.
        rebuilt = fresh_dataset()
        with QueryService(rebuilt.graph, rebuilt.calendars, backend="serial") as ref:
            ref.apply_mutations(
                [Mutation.remove_edge(*rebuilt.graph.edges()[0][:2]), Mutation.add_edge(0, 23, 1.0)]
            )
            expected = ref.solve_many(queries)
        live = gateway.solve_many(queries)
        assert [(r.feasible, r.members, r.total_distance) for r in live] == [
            (r.feasible, r.members, r.total_distance) for r in expected
        ]

    def test_version_gap_bridged_by_log_replay(self, fleet):
        gateway, workers = fleet
        # Capture version-0 state BEFORE mutating (a version-consistent pin).
        pin = graph_to_snapshot(gateway.graph)
        pin["version"] = 0
        gateway.apply_mutations([Mutation.add_edge(0, 22, 1.0)])
        # Knock worker 0 back to version 0 behind the gateway's back.
        workers[0].service.apply_snapshot(pin)
        assert workers[0].service.live_version == 0
        # The next batch hits a gap on worker 0; the backend must replay the
        # mutation log to bridge it.
        gateway.apply_mutations([Mutation.add_edge(0, 23, 1.0)])
        for worker in workers:
            assert worker.service.live_version == gateway.live_version == 2
            assert canon_edges(worker.service.graph) == canon_edges(gateway.graph)

    def test_version_gap_beyond_log_falls_back_to_snapshot(self, fleet):
        gateway, workers = fleet
        # One 2-mutation batch (0 -> 2): version 1 is mid-batch, not a boundary.
        gateway.apply_mutations(
            [Mutation.add_edge(0, 22, 1.0), Mutation.add_edge(0, 23, 1.0)]
        )
        # Pin worker 0 at the mid-batch version the log cannot chain from.
        pin = graph_to_snapshot(workers[0].service.graph)
        pin["version"] = 1
        workers[0].service.apply_snapshot(pin)
        assert gateway.mutation_log_since(1) is None
        gateway.apply_mutations([Mutation.remove_edge(0, 22)])
        for worker in workers:
            assert worker.service.live_version == gateway.live_version == 3
            assert canon_edges(worker.service.graph) == canon_edges(gateway.graph)

    def test_dead_worker_fails_the_distribution(self, fleet):
        gateway, workers = fleet
        workers[1].stop()
        with pytest.raises(WorkerUnavailableError):
            gateway.apply_mutations([Mutation.add_edge(0, 23, 1.0)])


class TestWireFrames:
    @pytest.fixture
    def worker(self):
        harness = WorkerHarness(fresh_dataset()).start()
        yield harness
        try:
            harness.stop()
        except Exception:
            pass

    def test_hello_advertises_live_version(self, worker):
        worker.service.apply_mutations([Mutation.add_edge(0, 23, 1.0)])
        sock = _client_socket(worker.address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            hello = recv_frame(sock)
            assert hello["type"] == "hello"
            assert hello["live_version"] == 1
        finally:
            sock.close()

    def test_delta_frame_applied_then_noop(self, worker):
        batch = MutationBatch(0, 1, (Mutation.add_edge(0, 23, 1.0),))
        sock = _client_socket(worker.address)
        try:
            for expected in ("applied", "noop"):
                send_frame(
                    sock, {"type": "delta", "id": "t", "batch": batch.as_wire()}
                )
                reply = recv_frame(sock)
                assert reply["type"] == "delta_result"
                assert reply["id"] == "t"
                assert reply["status"] == expected
                assert reply["version"] == 1
        finally:
            sock.close()
        assert worker.service.graph.has_edge(0, 23)

    def test_malformed_delta_keeps_connection_open(self, worker):
        sock = _client_socket(worker.address)
        try:
            send_frame(sock, {"type": "delta", "id": "t", "batch": "nonsense"})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            # The connection survives for the next frame.
            send_frame(sock, {"type": "ping", "id": "p"})
            assert recv_frame(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_snapshot_frame_replaces_worker_state(self, worker):
        source = path_service()
        with source:
            source.apply_mutations([Mutation.add_edge(0, 5, 2.0)])
            payload = source.snapshot_payload()
        sock = _client_socket(worker.address)
        try:
            send_frame(sock, {"type": "snapshot", "id": "t", "payload": payload})
            reply = recv_frame(sock)
            assert reply["type"] == "snapshot_applied"
            assert reply["version"] == 1
        finally:
            sock.close()
        assert worker.service.live_version == 1
        assert canon_edges(worker.service.graph) == canon_edges(source.graph)
