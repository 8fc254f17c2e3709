"""Network cluster subsystem tests: protocol, worker server, RemoteBackend.

The property test mirrors ``test_backends.py``: for any seeded workload the
``remote`` backend must return identical results *and* identical merged
aggregate stats to ``serial`` — the contract that makes going multi-node a
pure deployment decision.  Failure containment is covered by a worker-kill
test: requests routed to a dead worker degrade to per-request error
results, and the shard recovers once the worker is back.
"""

import asyncio
import math
import os
import signal
import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SGQuery, STGQuery
from repro.core.result import GroupResult, SearchStats, STGroupResult
from repro.exceptions import ProtocolError, QueryError, WorkerUnavailableError
from repro.experiments.workloads import workload
from repro.service import (
    ErrorResult,
    PlacementMap,
    ProcessBackend,
    QueryService,
    RemoteBackend,
    build_placement,
    make_backend,
)
from repro.service.codec import (
    decode_result,
    encode_result,
    query_from_request,
    request_for,
    response_for,
)
from repro.service.net import WorkerServer, parse_addresses, remote
from repro.service.net.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    encode_frame,
    recv_frame,
    send_frame,
)
from repro.service.sharding import stable_shard
from repro.temporal.slots import SlotRange

from .test_backends import DETERMINISTIC_COUNTERS, build_batch, run_backend
from .test_placement import SOLVER_COUNTERS


@pytest.fixture(scope="module")
def dataset():
    """Seeded 60-person workload shared by every test in this module."""
    return workload(network_size=60, schedule_days=1, seed=7)


def set_link_constants(monkeypatch, connect_timeout, backoff_base=0.01, backoff_cap=0.05):
    """Set the worker links' connect timeout and reconnect backoff for one test."""
    monkeypatch.setattr(remote, "CONNECT_TIMEOUT", connect_timeout)
    monkeypatch.setattr(remote, "BACKOFF_BASE", backoff_base)
    monkeypatch.setattr(remote, "BACKOFF_CAP", backoff_cap)


# ----------------------------------------------------------------------
# in-process worker harness (one asyncio loop per worker, on a thread)
# ----------------------------------------------------------------------
class WorkerHarness:
    """A real WorkerServer + QueryService running on a background thread."""

    def __init__(self, dataset, port: int = 0, backend: str = "serial", placement=None) -> None:
        self.service = QueryService(dataset.graph, dataset.calendars, backend=backend)
        self.loop = asyncio.new_event_loop()
        self.server = WorkerServer(self.service, "127.0.0.1", port, placement=placement)
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()
        self.loop.close()

    def start(self) -> "WorkerHarness":
        self._thread.start()
        assert self._started.wait(10), "worker server failed to start"
        return self

    @property
    def address(self) -> str:
        return self.server.address

    @property
    def port(self) -> int:
        return self.server.port

    def stop(self) -> None:
        asyncio.run_coroutine_threadsafe(self.server.aclose(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.service.close()


@pytest.fixture
def worker_pair(dataset):
    workers = [WorkerHarness(dataset).start() for _ in range(2)]
    yield workers
    for worker in workers:
        try:
            worker.stop()
        except Exception:
            pass


def _client_socket(address: str, timeout: float = 5.0) -> socket.socket:
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.settimeout(timeout)
    return sock


# ----------------------------------------------------------------------
# framing + codec units
# ----------------------------------------------------------------------
class TestFraming:
    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})

    def test_announced_oversized_frame_rejected_before_read(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            sock.sendall(struct.pack(">I", MAX_FRAME_BYTES + 1))
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "byte" in reply["error"]
        finally:
            sock.close()

    def test_non_object_frame_rejected(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            body = b"[1,2,3]"
            sock.sendall(struct.pack(">I", len(body)) + body)
            reply = recv_frame(sock)
            assert reply["type"] == "error"
        finally:
            sock.close()


class TestResultCodec:
    def test_sg_roundtrip(self):
        result = GroupResult(
            feasible=True,
            members=frozenset([1, 5, 9]),
            total_distance=4.5,
            solver="SGSelect",
            stats=SearchStats(nodes_expanded=17, elapsed_seconds=0.25),
        )
        decoded = decode_result(encode_result(result))
        assert decoded == result

    def test_stg_roundtrip_with_period(self):
        result = STGroupResult(
            feasible=True,
            members=frozenset([2, 3]),
            total_distance=1.0,
            period=SlotRange(4, 7),
            pivot=4,
            shared_slots=SlotRange(2, 9),
            solver="STGSelect",
            stats=SearchStats(pivots_processed=3),
        )
        decoded = decode_result(encode_result(result))
        assert decoded == result

    def test_infeasible_inf_distance_roundtrip(self):
        result = GroupResult.infeasible(solver="SGSelect")
        payload = encode_result(result)
        assert payload["total_distance"] is None  # JSON has no Infinity
        decoded = decode_result(payload)
        assert decoded.total_distance == math.inf
        assert decoded == result

    def test_query_request_roundtrip(self):
        sgq = SGQuery(initiator=9, group_size=4, radius=2, acquaintance=1)
        stgq = STGQuery(initiator=9, group_size=4, radius=2, acquaintance=1, activity_length=3)
        assert query_from_request(request_for(sgq)) == sgq
        assert query_from_request(request_for(stgq)) == stgq

    def test_error_result_renders_as_error_response(self):
        payload = response_for(7, ErrorResult(error="worker down"))
        assert payload == {"id": 7, "error": "worker down"}

    def test_malformed_result_payload_rejected(self):
        with pytest.raises(QueryError):
            decode_result({"kind": "nope"})
        with pytest.raises(QueryError):
            decode_result([1, 2])
        with pytest.raises(QueryError):
            decode_result({"kind": "sg", "feasible": True})  # missing fields


class TestAddressParsing:
    def test_spec_string(self):
        assert parse_addresses("a:1,b:2") == [("a", 1), ("b", 2)]

    def test_iterables_and_pairs(self):
        assert parse_addresses([("h", 9), "x:3"]) == [("h", 9), ("x", 3)]

    def test_rejects_bad_specs(self):
        for spec in ("", "no-port", "h:notaport", "h:0", "h:70000"):
            with pytest.raises(QueryError):
                parse_addresses(spec)

    def test_make_backend_remote(self):
        backend = make_backend("remote", connect="127.0.0.1:9001,127.0.0.1:9002")
        assert isinstance(backend, RemoteBackend)
        assert backend.workers == 2
        with pytest.raises(QueryError):
            make_backend("remote")  # no addresses


# ----------------------------------------------------------------------
# control frames against a live worker
# ----------------------------------------------------------------------
class TestControlFrames:
    def test_hello_ping_stats(self, worker_pair, dataset):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            hello = recv_frame(sock)
            assert hello["type"] == "hello"
            assert hello["v"] == PROTOCOL_VERSION
            assert hello["backend"] == "serial"
            assert hello["graph_size"] == dataset.graph.vertex_count

            send_frame(sock, {"type": "ping", "id": "abc"})
            pong = recv_frame(sock)
            assert pong == {"type": "pong", "id": "abc"}

            send_frame(sock, {"type": "stats"})
            stats = recv_frame(sock)
            assert stats["type"] == "stats"
            assert set(DETERMINISTIC_COUNTERS) <= set(stats["stats"])
            assert {"hits", "misses", "size", "max_size"} <= set(stats["cache"])
        finally:
            sock.close()

    def test_version_mismatch_refused(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION + 1})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "version" in reply["error"]
        finally:
            sock.close()

    def test_unknown_frame_type_keeps_connection(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "teleport", "id": 3})
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert reply["id"] == 3
            send_frame(sock, {"type": "ping", "id": 4})  # still served
            assert recv_frame(sock)["type"] == "pong"
        finally:
            sock.close()

    def test_batch_with_bad_request_entries(self, worker_pair, dataset):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            recv_frame(sock)
            requests = [
                request_for(SGQuery(initiator=dataset.people[0], group_size=3, radius=1,
                                    acquaintance=1)),
                {"group_size": 4},  # missing initiator
                {"initiator": 999999, "group_size": 3},  # not in graph
                request_for(STGQuery(initiator=dataset.people[0], group_size=3, radius=1,
                                     acquaintance=1,
                                     activity_length=dataset.calendars.horizon + 1)),
            ]
            send_frame(sock, {"type": "batch", "id": 1, "requests": requests})
            reply = recv_frame(sock)
            assert reply["type"] == "batch_result"
            results = reply["results"]
            assert "kind" in results[0]
            assert "error" in results[1] and "initiator" in results[1]["error"]
            assert "error" in results[2] and "999999" in results[2]["error"]
            assert "error" in results[3] and "horizon" in results[3]["error"]
            # Only the solved query is in the delta.
            assert reply["stats_delta"]["queries"] == 1
        finally:
            sock.close()


# ----------------------------------------------------------------------
# cache invalidation across the wire (acceptance criterion)
# ----------------------------------------------------------------------
class _MiniDataset:
    """Just enough dataset surface for a WorkerHarness."""

    def __init__(self, graph, calendars=None):
        self.graph = graph
        self.calendars = calendars


class TestRemoteCacheClear:
    def test_cache_clear_control_frame(self, worker_pair, dataset):
        """The raw wire contract: cache_clear empties the worker's cache."""
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            recv_frame(sock)
            query = SGQuery(
                initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1
            )
            send_frame(sock, {"type": "batch", "id": 1, "requests": [request_for(query)]})
            assert recv_frame(sock)["cache_size"] == 1
            send_frame(sock, {"type": "cache_clear", "id": 2})
            assert recv_frame(sock) == {"type": "cache_cleared", "id": 2}
            send_frame(sock, {"type": "stats"})
            assert recv_frame(sock)["cache"]["size"] == 0
        finally:
            sock.close()

    def test_mutated_graph_reload_on_remote_backend(self):
        """Regression: clear_cache() on a gateway must reach TCP workers.

        The worker shares the test's graph object (in-process harness), so
        after the mutation only its ego-network cache is stale — exactly
        the production hazard: without the cache_clear frame it keeps
        serving the pre-change network forever.
        """
        from repro.graph import SocialGraph

        graph = SocialGraph()
        graph.add_edge(0, "far", 5.0)
        graph.add_vertex("near")
        harness = WorkerHarness(_MiniDataset(graph)).start()
        try:
            backend = RemoteBackend([harness.address])
            query = SGQuery(initiator=0, group_size=2, radius=1, acquaintance=0)
            with QueryService(graph, backend=backend) as gateway:
                assert gateway.solve(query).members == {0, "far"}
                graph.add_edge(0, "near", 1.0)
                # The worker's private cache still answers pre-change.
                assert gateway.solve(query).members == {0, "far"}
                gateway.clear_cache()
                fresh = gateway.solve(query)
                assert fresh.members == {0, "near"}
                assert fresh.total_distance == 1.0
        finally:
            harness.stop()

    def test_clear_cache_bypasses_reconnect_backoff(self, worker_pair, dataset):
        """A link parked in its fail-fast window must still be attempted.

        The backoff bounds *batch* latency while a worker is down; an
        invalidation against a worker that already recovered must not be
        skipped because its last failure was recent.
        """
        backend = RemoteBackend([worker_pair[0].address])
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as gateway:
            query = SGQuery(
                initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1
            )
            gateway.solve(query)
            # Park the (healthy) link deep in a fail-fast window.
            link = backend._links[0]
            for _ in range(8):
                link._register_failure()
            gateway.clear_cache()  # must attempt (and succeed) anyway
            stats = backend.worker_stats()[0]
            assert stats is not None and stats["cache"]["size"] == 0

    def test_clear_cache_raises_when_worker_unreachable(self, monkeypatch):
        """Invalidation must not silently no-op against a dead worker."""
        from repro.graph import SocialGraph

        graph = SocialGraph()
        graph.add_edge(0, 1, 1.0)
        monkeypatch.setattr(remote, "CONNECT_TIMEOUT", 0.3)
        backend = RemoteBackend(["127.0.0.1:9"], timeout=0.5)
        with QueryService(graph, backend=backend) as service:
            with pytest.raises(WorkerUnavailableError, match="cache clear incomplete"):
                service.clear_cache()


# ----------------------------------------------------------------------
# RemoteBackend equivalence (acceptance criterion)
# ----------------------------------------------------------------------
class TestRemoteEquivalence:
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
    def test_remote_agrees_with_serial_on_results_and_stats(
        self, dataset, seed, n_queries, n_initiators, stg_fraction
    ):
        batch = build_batch(dataset, seed, n_queries, n_initiators, stg_fraction)
        reference_keys, reference_counters, reference_info = run_backend(
            dataset, "serial", batch
        )
        # Fresh workers per example: worker-side caches must start cold for
        # the hit/miss counters to be comparable with the serial reference.
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        try:
            backend = RemoteBackend([w.address for w in workers], timeout=30.0)
            keys, counters, info = run_backend(dataset, backend, batch)
        finally:
            for worker in workers:
                worker.stop()
        assert keys == reference_keys, "remote results diverged"
        assert counters == reference_counters, "remote stats diverged"
        assert (info.hits, info.misses) == (reference_info.hits, reference_info.misses)
        assert info.size == reference_info.size

    def test_single_solve_routes_remotely(self, worker_pair, dataset):
        query = SGQuery(initiator=dataset.people[3], group_size=4, radius=2, acquaintance=1)
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as reference:
            expected = reference.solve(query)
        backend = RemoteBackend([w.address for w in worker_pair])
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            result = service.solve(query)
            assert service.backend_name == "remote"
        assert result.members == expected.members
        assert result.total_distance == expected.total_distance

    def test_unknown_initiator_raises_like_local_backends(self, worker_pair, dataset):
        # The drop-in contract covers failure shapes too: an unknown
        # initiator raises at validation on every backend rather than
        # degrading to an in-band error result on remote only.
        from repro.exceptions import VertexNotFoundError

        bad = SGQuery(initiator=999999, group_size=3, radius=1, acquaintance=1)
        backend = RemoteBackend([w.address for w in worker_pair])
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            with pytest.raises(VertexNotFoundError):
                service.solve(bad)
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            with pytest.raises(VertexNotFoundError):
                service.solve(bad)

    def test_worker_stats_snapshots(self, worker_pair, dataset):
        backend = RemoteBackend([w.address for w in worker_pair])
        batch = build_batch(dataset, seed=5, n_queries=10, n_initiators=4, stg_fraction=0.0)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            service.solve_many(batch)
            snapshots = backend.worker_stats()
            assert len(snapshots) == 2
            assert all(s is not None and s["type"] == "stats" for s in snapshots)
            assert sum(s["stats"]["queries"] for s in snapshots) == len(batch)


# ----------------------------------------------------------------------
# failure containment + recovery (acceptance criterion)
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_dead_worker_yields_per_request_errors_then_recovers(self, dataset, monkeypatch):
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        set_link_constants(monkeypatch, connect_timeout=2.0)
        backend = RemoteBackend([w.address for w in workers], timeout=10.0)
        victim_port = workers[0].port
        batch = build_batch(dataset, seed=11, n_queries=16, n_initiators=6, stg_fraction=0.3)
        dead_shard_size = sum(
            1 for query in batch if stable_shard(query.initiator, 2) == 0
        )
        restarted = None
        try:
            with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
                first = service.solve_many(batch)
                assert not any(getattr(r, "error", None) for r in first)
                healthy_queries = service.stats().queries

                workers[0].stop()
                second = service.solve_many(batch)
                errors = [r for r in second if getattr(r, "error", None)]
                fine = [r for r in second if not getattr(r, "error", None)]
                assert len(errors) == dead_shard_size
                assert len(fine) == len(batch) - dead_shard_size
                for error in errors:
                    assert error.feasible is False
                    assert "worker 127.0.0.1" in error.error
                # Only the healthy shard's queries were counted (all-or-nothing
                # per shard, never a partial merge from the dead one).
                assert service.stats().queries == healthy_queries + len(fine)

                # Restart on the same port; after the backoff window the link
                # reconnects and the batch is fully served again.
                restarted = WorkerHarness(dataset, port=victim_port).start()
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    time.sleep(0.06)  # let the fail-fast window expire
                    third = service.solve_many(batch)
                    if not any(getattr(r, "error", None) for r in third):
                        break
                else:
                    pytest.fail("remote backend never recovered after worker restart")
                keys = [(r.feasible, r.members, r.total_distance) for r in third]
                expected = [(r.feasible, r.members, r.total_distance) for r in first]
                assert keys == expected
        finally:
            for worker in [workers[1]] + ([restarted] if restarted else []):
                try:
                    worker.stop()
                except Exception:
                    pass

    def test_all_workers_down_degrades_not_raises(self, dataset, monkeypatch):
        # Nothing is listening on these ports: every request degrades.
        set_link_constants(monkeypatch, connect_timeout=0.2)
        backend = RemoteBackend("127.0.0.1:1,127.0.0.1:2", timeout=1.0)
        batch = build_batch(dataset, seed=2, n_queries=6, n_initiators=3, stg_fraction=0.0)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            results = service.solve_many(batch)
            assert len(results) == len(batch)
            assert all(isinstance(r, ErrorResult) for r in results)
            assert service.stats().queries == 0

    def test_slow_worker_times_out_per_request(self, dataset, monkeypatch):
        # A stub worker that handshakes correctly but never answers batches.
        ready = threading.Event()
        bound = {}

        def stall_server():
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            bound["port"] = listener.getsockname()[1]
            ready.set()
            conn, _ = listener.accept()
            try:
                recv_frame(conn)
                send_frame(conn, {"type": "hello", "v": PROTOCOL_VERSION})
                recv_frame(conn)  # the batch frame: swallow it and stall
                time.sleep(5.0)
            except Exception:
                pass
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=stall_server, daemon=True)
        thread.start()
        assert ready.wait(5)
        monkeypatch.setattr(remote, "CONNECT_TIMEOUT", 2.0)
        backend = RemoteBackend([("127.0.0.1", bound["port"])], timeout=0.3)
        query = SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            result = service.solve(query)
        assert isinstance(result, ErrorResult)
        assert "timed out" in result.error

    def test_dribbling_worker_bounded_by_deadline_not_per_recv(self, dataset, monkeypatch):
        # A degraded worker that keeps trickling bytes resets a naive
        # per-recv timeout forever; the round-trip deadline must fire.
        ready = threading.Event()
        bound = {}

        def dribble_server():
            listener = socket.socket()
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            bound["port"] = listener.getsockname()[1]
            ready.set()
            conn, _ = listener.accept()
            try:
                recv_frame(conn)
                send_frame(conn, {"type": "hello", "v": PROTOCOL_VERSION})
                recv_frame(conn)  # the batch frame
                conn.sendall(struct.pack(">I", 64))  # announce a 64-byte body...
                for _ in range(20):  # ...then trickle it one byte at a time
                    conn.sendall(b"x")
                    time.sleep(0.15)
            except Exception:
                pass
            finally:
                conn.close()
                listener.close()

        thread = threading.Thread(target=dribble_server, daemon=True)
        thread.start()
        assert ready.wait(5)
        monkeypatch.setattr(remote, "CONNECT_TIMEOUT", 2.0)
        backend = RemoteBackend([("127.0.0.1", bound["port"])], timeout=0.5)
        query = SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
        start = time.monotonic()
        with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
            result = service.solve(query)
        assert isinstance(result, ErrorResult)
        assert "timed out" in result.error
        assert time.monotonic() - start < 2.0  # deadline, not 20 * 0.15s of dribble

    def test_failed_solve_ships_no_stats_delta(self, worker_pair, dataset):
        # When the worker's solve blows up it answers every request with an
        # error — and must NOT ship the batch's stats delta, or the gateway
        # would count queries whose callers only saw ErrorResults.
        harness = worker_pair[0]

        def explode(queries, context=None):
            raise RuntimeError("pool died")

        original = harness.service.solve_many
        harness.service.solve_many = explode
        try:
            sock = _client_socket(harness.address)
            try:
                send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
                recv_frame(sock)
                request = request_for(
                    SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
                )
                send_frame(sock, {"type": "batch", "id": 1, "requests": [request]})
                reply = recv_frame(sock)
            finally:
                sock.close()
        finally:
            harness.service.solve_many = original
        assert reply["type"] == "batch_result"
        assert reply["results"] == [{"error": "pool died"}]
        assert reply["stats_delta"] == {}

    def test_worker_ships_its_dead_childs_errors_as_errors(self, dataset, monkeypatch):
        # A worker answering through a process backend whose child was
        # SIGKILLed must send that shard's ErrorResults as {"error": ...}
        # entries, so a gateway in front returns errors, not infeasible
        # answers.  The exit is hidden from poll(), as for a child that dies
        # after a batch checked on it; otherwise the batch restarts it.
        owners = {0: [], 1: []}
        for person in dataset.people:
            owners[stable_shard(person, 2)].append(person)
        batch = [
            SGQuery(initiator=person, group_size=3, radius=1, acquaintance=1)
            for person in owners[0][:2] + owners[1][:2]
        ]
        with QueryService(dataset.graph, dataset.calendars) as reference:
            expected = [(r.feasible, r.members) for r in reference.solve_many(batch)]
        backend = ProcessBackend(workers=2)
        harness = WorkerHarness(dataset, backend=backend).start()
        try:
            harness.service.solve(batch[0])  # starts both children
            victim = backend._children.processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(10)
            monkeypatch.setattr(victim, "poll", lambda: None)
            sock = _client_socket(harness.address)
            try:
                requests = [request_for(query) for query in batch]
                send_frame(sock, {"type": "batch", "id": 1, "requests": requests})
                reply = recv_frame(sock)
            finally:
                sock.close()
            assert [list(entry) for entry in reply["results"][:2]] == [["error"], ["error"]]
            assert all("kind" in entry for entry in reply["results"][2:])
            gateway_backend = RemoteBackend(harness.address)
            with QueryService(dataset.graph, dataset.calendars, backend=gateway_backend) as gateway:
                results = gateway.solve_many(batch)
            assert all(isinstance(result, ErrorResult) for result in results[:2])
            assert [(r.feasible, r.members) for r in results[2:]] == expected[2:]
        finally:
            harness.stop()

    def test_link_backoff_fails_fast_while_down(self, monkeypatch):
        set_link_constants(monkeypatch, connect_timeout=0.2, backoff_base=5.0, backoff_cap=5.0)
        backend = RemoteBackend("127.0.0.1:1", timeout=1.0)
        link = backend._links[0]
        with pytest.raises(WorkerUnavailableError):
            link.request({"type": "ping", "id": 0})
        start = time.monotonic()
        with pytest.raises(WorkerUnavailableError) as excinfo:
            link.request({"type": "ping", "id": 1})
        assert time.monotonic() - start < 0.15  # no second connect attempt
        assert "backoff" in str(excinfo.value)
        backend.close()


# ----------------------------------------------------------------------
# subprocess cluster: the `stgq worker` CLI end-to-end
# ----------------------------------------------------------------------
class TestLocalCluster:
    def test_spawned_worker_answers_a_gateway(self):
        from repro.service.net import start_local_workers

        # Small population keeps the subprocess's dataset build fast; the
        # gateway must load the same seeded dataset for results to compare.
        gateway_dataset = workload(network_size=60, schedule_days=1, seed=7)
        with start_local_workers(1, people=60, days=1, seed=7) as cluster:
            assert len(cluster.addresses) == 1
            worker_processes = list(cluster.processes)
            backend = RemoteBackend(cluster.connect_spec(), timeout=30.0)
            query = SGQuery(
                initiator=gateway_dataset.people[0], group_size=3, radius=1, acquaintance=1
            )
            with QueryService(
                gateway_dataset.graph, gateway_dataset.calendars, backend=backend
            ) as service:
                remote_result = service.solve(query)
            with QueryService(
                gateway_dataset.graph, gateway_dataset.calendars, backend="serial"
            ) as reference:
                expected = reference.solve(query)
            assert not getattr(remote_result, "error", None)
            assert remote_result.members == expected.members
            assert remote_result.total_distance == expected.total_distance
        # Context exit terminated the worker subprocesses — gracefully: the
        # SIGTERM handler closes the server and the service, so the worker
        # exits 0 instead of dying on the signal.
        assert cluster.processes == []
        assert [process.returncode for process in worker_processes] == [0]


# ----------------------------------------------------------------------
# placement distribution frames (versioned PlacementMap over the wire)
# ----------------------------------------------------------------------
class TestPlacementFrames:
    def test_update_applied_noop_and_get(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            hello = recv_frame(sock)
            assert hello["placement_version"] == 0  # fresh worker: CRC32 fallback

            v1 = PlacementMap(2, version=1)
            send_frame(sock, {"type": "placement_update", "id": 1, "map": v1.as_wire()})
            reply = recv_frame(sock)
            assert reply == {
                "type": "placement_applied", "id": 1, "status": "applied", "version": 1,
            }

            # Idempotent re-push: same version is a noop, not an error.
            send_frame(sock, {"type": "placement_update", "id": 2, "map": v1.as_wire()})
            assert recv_frame(sock)["status"] == "noop"

            v3 = PlacementMap(2, version=3)
            send_frame(sock, {"type": "placement_update", "id": 3, "map": v3.as_wire()})
            assert recv_frame(sock) == {
                "type": "placement_applied", "id": 3, "status": "applied", "version": 3,
            }

            # Strictly-newer-applies: a stale push cannot roll the map back.
            send_frame(sock, {"type": "placement_update", "id": 4, "map": v1.as_wire()})
            reply = recv_frame(sock)
            assert reply["status"] == "noop"
            assert reply["version"] == 3

            send_frame(sock, {"type": "placement_get", "id": 5})
            reply = recv_frame(sock)
            assert reply["type"] == "placement"
            assert reply["id"] == 5
            assert reply["version"] == 3
            assert PlacementMap.from_wire(reply["map"]).as_wire() == v3.as_wire()
        finally:
            sock.close()

    def test_junk_map_rejected_connection_kept(self, worker_pair):
        sock = _client_socket(worker_pair[0].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            recv_frame(sock)
            send_frame(
                sock, {"type": "placement_update", "id": 1, "map": {"n_shards": "two"}}
            )
            reply = recv_frame(sock)
            assert reply["type"] == "error"
            assert "placement rejected" in reply["error"]
            # The bad push neither stored anything nor dropped the session.
            send_frame(sock, {"type": "placement_get", "id": 2})
            reply = recv_frame(sock)
            assert reply["version"] == 0
            assert reply["map"] is None
        finally:
            sock.close()

    def test_worker_boots_holding_placement(self, dataset):
        placement = PlacementMap(2, version=7, assignments={dataset.people[0]: 1})
        harness = WorkerHarness(dataset, placement=placement).start()
        try:
            sock = _client_socket(harness.address)
            try:
                send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
                assert recv_frame(sock)["placement_version"] == 7
                send_frame(sock, {"type": "placement_get", "id": 1})
                reply = recv_frame(sock)
                assert reply["version"] == 7
                assert PlacementMap.from_wire(reply["map"]).as_wire() == placement.as_wire()
            finally:
                sock.close()
        finally:
            harness.stop()

    def test_batch_result_and_stats_advertise_version(self, worker_pair, dataset):
        sock = _client_socket(worker_pair[1].address)
        try:
            send_frame(sock, {"type": "hello", "v": PROTOCOL_VERSION})
            recv_frame(sock)
            placement = PlacementMap(2, version=4)
            send_frame(
                sock, {"type": "placement_update", "id": 1, "map": placement.as_wire()}
            )
            recv_frame(sock)
            request = request_for(
                SGQuery(initiator=dataset.people[0], group_size=3, radius=1, acquaintance=1)
            )
            send_frame(sock, {"type": "batch", "id": 2, "requests": [request]})
            reply = recv_frame(sock)
            assert reply["type"] == "batch_result"
            assert reply["placement_version"] == 4  # piggybacked adoption signal
            send_frame(sock, {"type": "stats"})
            assert recv_frame(sock)["placement_version"] == 4
        finally:
            sock.close()


# ----------------------------------------------------------------------
# placement push + gateway adoption (versioned map across gateways)
# ----------------------------------------------------------------------
class TestPlacementDistribution:
    def test_update_placement_pushes_fleet_wide_then_noops(self, worker_pair):
        placement = PlacementMap(2, version=5)
        backend = RemoteBackend([w.address for w in worker_pair])
        try:
            assert backend.placement_version == 0
            statuses = backend.update_placement(placement)
            assert statuses == {0: "applied", 1: "applied"}
            assert backend.placement_version == 5
            # Re-push is idempotent on every worker (delta-frame semantics).
            assert backend.update_placement(placement) == {0: "noop", 1: "noop"}
            assert backend.placement_version == 5
        finally:
            backend.close()

    def test_second_gateway_adopts_advertised_map(self, worker_pair, dataset):
        pusher = RemoteBackend([w.address for w in worker_pair])
        follower = RemoteBackend([w.address for w in worker_pair])
        try:
            pusher.update_placement(PlacementMap(2, version=6))
            # The follower knows nothing of the push until a batch_result
            # advertises the newer version; then it fetches and swaps.
            assert follower.placement_version == 0
            batch = build_batch(dataset, seed=3, n_queries=4, n_initiators=2, stg_fraction=0.0)
            with QueryService(
                dataset.graph, dataset.calendars, backend=follower
            ) as gateway:
                results = gateway.solve_many(batch)
                assert not any(getattr(r, "error", None) for r in results)
                assert follower.placement_version == 6
                assert follower.route_report()["strategy"] == "vnode"
        finally:
            pusher.close()

    def test_mid_stream_swap_keeps_equivalence(self, dataset):
        """The acceptance bar: pushing a new map between batches must not
        change a single byte of results, only where queries execute."""
        batch = build_batch(dataset, seed=21, n_queries=12, n_initiators=5, stg_fraction=0.3)
        reference_keys, reference_counters, _ = run_backend(dataset, "serial", batch)
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        try:
            backend = RemoteBackend([w.address for w in workers], timeout=30.0)
            with QueryService(
                dataset.graph, dataset.calendars, backend=backend
            ) as gateway:
                first = gateway.solve_many(batch)  # CRC32 routing (version 0)
                backend.update_placement(
                    build_placement(batch, 2, replicas=2, version=3)
                )
                second = gateway.solve_many(batch)  # load-aware routing
                for results in (first, second):
                    keys = [
                        (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
                        for r in results
                    ]
                    assert keys == reference_keys
                merged = gateway.stats().as_dict()
                for name in SOLVER_COUNTERS:
                    assert merged[name] == 2 * reference_counters[name]
        finally:
            for worker in workers:
                worker.stop()


# ----------------------------------------------------------------------
# hot-ego replication: fan-out + failover (acceptance criterion)
# ----------------------------------------------------------------------
class TestReplicaFailover:
    def test_replicated_hot_ego_survives_worker_death(self, dataset, monkeypatch):
        hot = dataset.people[0]
        cold = dataset.people[1]
        placement = PlacementMap(
            2, version=1, assignments={cold: 0}, replicas={hot: (0, 1)}
        )
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        set_link_constants(monkeypatch, connect_timeout=2.0)
        backend = RemoteBackend([w.address for w in workers], timeout=10.0, placement=placement)
        # Distinct hot queries so both replicas genuinely solve work, plus
        # cold queries pinned (unreplicated) to the shard we will kill.
        batch = [
            SGQuery(initiator=hot, group_size=size, radius=1, acquaintance=1)
            for size in (3, 4, 5, 3, 4, 5)
        ] + [
            SGQuery(initiator=cold, group_size=size, radius=1, acquaintance=1)
            for size in (3, 4)
        ]
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as reference:
            expected = [
                (r.feasible, r.members, r.total_distance) for r in reference.solve_many(batch)
            ]
        try:
            with QueryService(dataset.graph, dataset.calendars, backend=backend) as gateway:
                first = gateway.solve_many(batch)
                assert not any(getattr(r, "error", None) for r in first)
                assert [
                    (r.feasible, r.members, r.total_distance) for r in first
                ] == expected
                assert gateway.stats().queries == len(batch)

                workers[0].stop()
                second = gateway.solve_many(batch)
                # Every replicated hot query failed over to the surviving
                # replica — byte-identical answers, zero ErrorResults.
                for result, key in zip(second[:6], expected[:6]):
                    assert not getattr(result, "error", None)
                    assert (result.feasible, result.members, result.total_distance) == key
                # The unreplicated cold ego lived only on the dead shard:
                # containment still degrades those to per-request errors.
                for result in second[6:]:
                    assert isinstance(result, ErrorResult)
                    assert "worker 127.0.0.1" in result.error
                # Exactly-once accounting: only the 6 recovered queries were
                # merged, never a double count from the failed primary wave.
                assert gateway.stats().queries == len(batch) + 6
                # Round-robin fan-out put 3 of the 6 hot queries on each
                # replica, so exactly the dead shard's 3 needed the retry
                # wave; the other 3 were already on the survivor.
                report = gateway.route_report()
                assert report["failover_queries"] == 3
                assert report["failover_batches"] == 1
        finally:
            for worker in workers[1:]:
                try:
                    worker.stop()
                except Exception:
                    pass
            backend.close()


# ----------------------------------------------------------------------
# remote placement equivalence (acceptance criterion)
# ----------------------------------------------------------------------
class TestRemotePlacementEquivalence:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        ring_seed=st.integers(min_value=0, max_value=2**10),
        replicas=st.integers(min_value=1, max_value=2),
    )
    def test_any_placement_matches_serial(self, dataset, seed, ring_seed, replicas):
        batch = build_batch(dataset, seed, n_queries=14, n_initiators=5, stg_fraction=0.3)
        reference_keys, reference_counters, reference_info = run_backend(
            dataset, "serial", batch
        )
        placement = build_placement(
            batch, 2, replicas=replicas, seed=ring_seed, version=1
        )
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        try:
            backend = RemoteBackend(
                [w.address for w in workers], timeout=30.0, placement=placement
            )
            keys, counters, info = run_backend(dataset, backend, batch)
        finally:
            for worker in workers:
                worker.stop()
        assert keys == reference_keys, "placement-routed remote results diverged"
        for name in SOLVER_COUNTERS:
            assert counters[name] == reference_counters[name]
        # Cache-accounting contract: one lookup per query is conserved, and
        # each replicated ego may add at most (width - 1) extra misses.
        assert (
            counters["cache_hits"] + counters["cache_misses"]
            == reference_counters["cache_hits"] + reference_counters["cache_misses"]
        )
        slack = sum(len(group) - 1 for group in placement.replicas.values())
        assert (
            reference_info.misses <= info.misses <= reference_info.misses + slack
        )
