"""Concurrent-batch tests: the multi-gateway worker contract.

These tests pin the tentpole property of the per-batch
:class:`~repro.service.ExecutionContext` refactor: a TCP worker no longer
holds a lock across batch execution, so batch frames from *separate
connections* (= separate gateways) make progress simultaneously — and
because every batch accounts into its own context, the worker's merged
stats still equal the serial sum of everything it answered, with each
gateway seeing its own exact delta.
"""

import json
import socket
import threading
import time

import pytest

from repro.core import SGQuery
from repro.experiments.workloads import workload
from repro.service import ErrorResult, ExecutionContext, QueryService, RemoteBackend
from repro.service.codec import request_for
from repro.service.net.protocol import client_handshake, recv_frame, send_frame
from repro.service.sharding import stable_shard

from .test_backends import DETERMINISTIC_COUNTERS, build_batch, run_backend
from .test_net import WorkerHarness


@pytest.fixture(scope="module")
def dataset():
    """Seeded 60-person workload shared by every test in this module."""
    return workload(network_size=60, schedule_days=1, seed=7)


def _handshaken_socket(address: str, timeout: float = 15.0) -> socket.socket:
    host, _, port = address.rpartition(":")
    sock = socket.create_connection((host, int(port)), timeout=timeout)
    sock.settimeout(timeout)
    client_handshake(sock)
    return sock


class TestConcurrentBatchFrames:
    def test_batches_on_separate_connections_progress_simultaneously(self, dataset):
        # Both connections' batches must be *inside* the solve at the same
        # time.  A two-party barrier in the solve path proves it: with the
        # old per-worker solve lock the second batch could not start until
        # the first finished, the barrier would never fill, and both
        # batches would time out broken.
        harness = WorkerHarness(dataset).start()
        barrier = threading.Barrier(2)
        original = harness.service.solve_many

        def synced_solve_many(queries, context=None):
            barrier.wait(timeout=15)
            return original(queries, context)

        harness.service.solve_many = synced_solve_many
        batch = build_batch(dataset, seed=21, n_queries=4, n_initiators=3, stg_fraction=0.0)
        requests = [request_for(query) for query in batch]
        replies = {}
        errors = []

        def gateway(name: str) -> None:
            try:
                sock = _handshaken_socket(harness.address)
                try:
                    send_frame(sock, {"type": "batch", "id": name, "requests": requests})
                    replies[name] = recv_frame(sock)
                finally:
                    sock.close()
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((name, exc))

        try:
            threads = [
                threading.Thread(target=gateway, args=(name,)) for name in ("g1", "g2")
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not errors, f"gateway thread failed: {errors}"
            assert not barrier.broken, "batches never overlapped: worker serialized them"
            for name in ("g1", "g2"):
                reply = replies[name]
                assert reply["type"] == "batch_result"
                assert reply["id"] == name
                assert all("error" not in result for result in reply["results"])
        finally:
            harness.service.solve_many = original
            harness.stop()

    def test_two_gateways_overlapping_batches_results_and_stats(self, dataset):
        # Two gateways hammer ONE worker with overlapping batches at the
        # same time; both must get exactly the results a serial service
        # produces, each gateway's merged stats must equal its own serial
        # reference, and the worker's totals must equal the serial sum of
        # both batches — the per-batch contexts may interleave arbitrarily
        # but must never smear into each other.
        batch_a = build_batch(dataset, seed=31, n_queries=12, n_initiators=5, stg_fraction=0.3)
        batch_b = build_batch(dataset, seed=32, n_queries=12, n_initiators=5, stg_fraction=0.3)
        ref_keys_a, ref_counters_a, _ = run_backend(dataset, "serial", batch_a)
        ref_keys_b, ref_counters_b, _ = run_backend(dataset, "serial", batch_b)
        combined_counters = {
            name: ref_counters_a[name] + ref_counters_b[name]
            for name in DETERMINISTIC_COUNTERS
        }
        # Cache counters are interleaving-independent only because misses
        # are single-flighted; the worker-side totals for overlapping
        # batches equal those of one serial service answering batch_a then
        # batch_b: every distinct (initiator, radius) misses exactly once.
        serial_service = QueryService(dataset.graph, dataset.calendars, backend="serial")
        with serial_service:
            serial_service.solve_many(batch_a)
            serial_service.solve_many(batch_b)
            expected_worker = serial_service.stats().as_dict()

        harness = WorkerHarness(dataset).start()
        outcomes = {}
        errors = []
        start_line = threading.Barrier(2)

        def gateway(name, batch):
            try:
                backend = RemoteBackend([harness.address], timeout=60.0)
                with QueryService(
                    dataset.graph, dataset.calendars, backend=backend
                ) as service:
                    start_line.wait(timeout=15)
                    results = service.solve_many(batch)
                    outcomes[name] = (results, service.stats().as_dict())
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append((name, exc))

        try:
            threads = [
                threading.Thread(target=gateway, args=("a", batch_a)),
                threading.Thread(target=gateway, args=("b", batch_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            assert not errors, f"gateway failed: {errors}"
            worker_stats = harness.service.stats().as_dict()
        finally:
            harness.stop()

        # Per-gateway: results and the per-query counters are exact.  The
        # cache split between the gateways depends on interleaving (the
        # worker's cache is shared, so whichever batch touches a key first
        # takes the miss) — only each gateway's lookup total and the
        # worker-wide split are invariant.
        per_query_counters = [
            c for c in DETERMINISTIC_COUNTERS if c not in ("cache_hits", "cache_misses")
        ]
        for name, batch, ref_keys, ref_counters in (
            ("a", batch_a, ref_keys_a, ref_counters_a),
            ("b", batch_b, ref_keys_b, ref_counters_b),
        ):
            results, stats = outcomes[name]
            assert not any(getattr(r, "error", None) for r in results)
            keys = [
                (r.feasible, r.members, r.total_distance, getattr(r, "period", None))
                for r in results
            ]
            assert keys == ref_keys, f"gateway {name} results diverged"
            gateway_counters = {c: stats[c] for c in per_query_counters}
            reference = {c: ref_counters[c] for c in per_query_counters}
            assert gateway_counters == reference, f"gateway {name} stats diverged"
            assert stats["cache_hits"] + stats["cache_misses"] == len(batch)
        # Worker-wide: the merged totals equal one serial service answering
        # batch_a then batch_b — every distinct ego network missed exactly
        # once (single-flight), everything else hit, nothing double-counted.
        merged = {c: worker_stats[c] for c in DETERMINISTIC_COUNTERS}
        expected = {c: expected_worker[c] for c in DETERMINISTIC_COUNTERS}
        assert merged == expected, "worker merged stats != serial sum"
        for counter in per_query_counters:
            assert merged[counter] == combined_counters[counter]

    def test_batch_frame_opt_in_stats_field(self, dataset):
        # {"stats": true} on a batch frame returns the batch's merged
        # kernel statistics, recorded into the batch's ExecutionContext by
        # the solvers themselves.
        harness = WorkerHarness(dataset).start()
        try:
            batch = build_batch(dataset, seed=41, n_queries=5, n_initiators=3, stg_fraction=0.4)
            requests = [request_for(query) for query in batch]
            sock = _handshaken_socket(harness.address)
            try:
                send_frame(sock, {"type": "batch", "id": 1, "requests": requests, "stats": True})
                with_stats = recv_frame(sock)
                send_frame(sock, {"type": "batch", "id": 2, "requests": requests})
                without = recv_frame(sock)
            finally:
                sock.close()
        finally:
            harness.stop()
        assert "stats" not in without
        batch_stats = with_stats["stats"]
        assert batch_stats["nodes_expanded"] == sum(
            result["stats"]["nodes_expanded"] for result in with_stats["results"]
        )
        assert batch_stats["nodes_expanded"] == with_stats["stats_delta"]["nodes_expanded"]

    def test_failed_batch_ships_no_stats_even_when_requested(self, dataset):
        # A batch whose solve blows up answers every request with an error,
        # ships no stats_delta — and no opt-in kernel stats either, even if
        # some solves completed before the failure.
        harness = WorkerHarness(dataset).start()

        def explode(queries, context=None):
            raise RuntimeError("pool died")

        harness.service.solve_many = explode
        try:
            batch = build_batch(dataset, seed=42, n_queries=3, n_initiators=2, stg_fraction=0.0)
            requests = [request_for(query) for query in batch]
            sock = _handshaken_socket(harness.address)
            try:
                send_frame(sock, {"type": "batch", "id": 1, "requests": requests, "stats": True})
                reply = recv_frame(sock)
            finally:
                sock.close()
        finally:
            harness.stop()
        assert reply["type"] == "batch_result"
        assert all(result == {"error": "pool died"} for result in reply["results"])
        assert reply["stats_delta"] == {}
        assert "stats" not in reply


class TestExecutionContextDeltas:
    def test_caller_context_carries_exact_batch_delta(self, dataset):
        # A caller-provided context reads this batch's delta while the
        # service totals keep accumulating across batches.
        batch = build_batch(dataset, seed=51, n_queries=8, n_initiators=4, stg_fraction=0.5)
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            first = ExecutionContext()
            service.solve_many(batch, context=first)
            second = ExecutionContext()
            service.solve_many(batch, context=second)
            totals = service.stats().as_dict()
        first_delta = first.as_delta()
        second_delta = second.as_delta()
        assert first_delta["queries"] == len(batch)
        assert second_delta["queries"] == len(batch)
        # Second pass is all cache hits; first pass took the misses.
        assert second_delta["cache_misses"] == 0
        assert first_delta["cache_misses"] > 0
        for counter in DETERMINISTIC_COUNTERS:
            assert totals[counter] == first_delta[counter] + second_delta[counter]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_solver_records_kernel_stats_into_context(self, dataset, backend):
        # The merged kernel view is backend-invariant too: sharded backends
        # re-record worker-side result stats into the parent context.
        batch = build_batch(dataset, seed=52, n_queries=6, n_initiators=3, stg_fraction=0.0)
        context = ExecutionContext()
        with QueryService(
            dataset.graph, dataset.calendars, max_workers=2, backend=backend
        ) as service:
            results = service.solve_many(batch, context=context)
        kernel = context.search_stats()
        assert context.solves == len(batch)
        assert kernel.nodes_expanded == sum(r.stats.nodes_expanded for r in results)
        assert kernel.candidates_considered == sum(
            r.stats.candidates_considered for r in results
        )

    def test_remote_backend_kernel_stats_cross_the_wire(self, dataset):
        batch = build_batch(dataset, seed=54, n_queries=6, n_initiators=3, stg_fraction=0.3)
        harness = WorkerHarness(dataset).start()
        try:
            context = ExecutionContext()
            backend = RemoteBackend([harness.address], timeout=30.0)
            with QueryService(
                dataset.graph, dataset.calendars, backend=backend
            ) as service:
                results = service.solve_many(batch, context=context)
        finally:
            harness.stop()
        kernel = context.search_stats()
        assert context.solves == len(batch)
        assert kernel.nodes_expanded == sum(r.stats.nodes_expanded for r in results)
        assert kernel.nodes_expanded > 0

    def test_failed_batch_merges_nothing_on_serial(self, dataset):
        # All-or-nothing now holds on every backend, not just process: a
        # batch that raises mid-flight leaves the totals untouched.
        good = build_batch(dataset, seed=53, n_queries=4, n_initiators=2, stg_fraction=0.0)
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            original = service._solve_local
            calls = {"n": 0}

            def explode_midway(query, context):
                calls["n"] += 1
                if calls["n"] == 3:
                    raise RuntimeError("solver died mid-batch")
                return original(query, context)

            service._solve_local = explode_midway
            with pytest.raises(RuntimeError):
                service.solve_many(good)
            service._solve_local = original
            assert service.stats().queries == 0
            service.solve_many(good)
            assert service.stats().queries == len(good)


class TestJsonlStatsOptIn:
    def test_per_request_stats_field(self, dataset):
        import io

        from repro.service import serve_jsonl

        initiator = dataset.people[0]
        lines = [
            json.dumps({"id": 1, "initiator": initiator, "group_size": 3, "stats": True}),
            json.dumps({"id": 2, "initiator": initiator, "group_size": 3}),
        ]
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        with QueryService(dataset.graph, dataset.calendars, backend="serial") as service:
            served = serve_jsonl(service, stdin, stdout)
        assert served == 2
        responses = {
            payload["id"]: payload
            for payload in map(json.loads, stdout.getvalue().splitlines())
        }
        assert "stats" in responses[1]
        assert responses[1]["stats"]["nodes_expanded"] > 0
        assert "elapsed_seconds" in responses[1]["stats"]
        assert "stats" not in responses[2]


class TestConcurrencyTiming:
    def test_slow_batch_does_not_block_fast_batch(self, dataset):
        # A worker busy with a slow gateway batch must still answer another
        # connection's small batch promptly — the starvation scenario that
        # motivated dropping the lock.  The slow batch is made slow
        # artificially (a sleep inside the solve path), so the test is
        # robust on a single-core runner.
        harness = WorkerHarness(dataset).start()
        original = harness.service.solve_many

        def sleepy_solve_many(queries, context=None):
            if len(queries) > 1:
                time.sleep(1.5)
            return original(queries, context)

        harness.service.solve_many = sleepy_solve_many
        batch = build_batch(dataset, seed=61, n_queries=6, n_initiators=3, stg_fraction=0.0)
        slow_requests = [request_for(query) for query in batch]
        fast_request = [request_for(batch[0])]
        slow_started = threading.Event()
        slow_reply = {}

        def slow_gateway():
            sock = _handshaken_socket(harness.address)
            try:
                send_frame(sock, {"type": "batch", "id": "slow", "requests": slow_requests})
                slow_started.set()
                slow_reply["frame"] = recv_frame(sock)
            finally:
                sock.close()

        try:
            thread = threading.Thread(target=slow_gateway)
            thread.start()
            assert slow_started.wait(10)
            time.sleep(0.1)  # let the slow batch enter the worker
            sock = _handshaken_socket(harness.address)
            try:
                start = time.monotonic()
                send_frame(sock, {"type": "batch", "id": "fast", "requests": fast_request})
                fast = recv_frame(sock)
                fast_elapsed = time.monotonic() - start
            finally:
                sock.close()
            thread.join(30)
        finally:
            harness.service.solve_many = original
            harness.stop()
        assert fast["type"] == "batch_result"
        assert "error" not in fast["results"][0]
        assert fast_elapsed < 1.0, (
            f"small batch waited {fast_elapsed:.2f}s behind another "
            "connection's slow batch — worker is serializing again"
        )
        assert slow_reply["frame"]["type"] == "batch_result"

    def test_stalled_shard_does_not_block_other_shards(self, dataset):
        # Shard 0's worker stalls with two gateway batches in flight for
        # it.  A one-query batch for shard 1 must not queue behind them: a
        # fan-out pool shared by all shards (and as wide as their count)
        # would hold it until the stall ends.
        workers = [WorkerHarness(dataset).start() for _ in range(2)]
        original = workers[0].service.solve_many

        def stalled_solve_many(queries, context=None):
            time.sleep(1.5)
            return original(queries, context)

        workers[0].service.solve_many = stalled_solve_many
        owners = {stable_shard(person, 2): person for person in dataset.people}
        stalled = SGQuery(initiator=owners[0], group_size=3, radius=1, acquaintance=1)
        fast = SGQuery(initiator=owners[1], group_size=3, radius=1, acquaintance=1)
        backend = RemoteBackend([worker.address for worker in workers], timeout=30.0)
        try:
            with QueryService(dataset.graph, dataset.calendars, backend=backend) as service:
                gateways = [
                    threading.Thread(target=service.solve_many, args=([stalled],))
                    for _ in range(2)
                ]
                for thread in gateways:
                    thread.start()
                time.sleep(0.2)  # both stalled batches are now queued on shard 0
                start = time.monotonic()
                result = service.solve(fast)
                fast_elapsed = time.monotonic() - start
                for thread in gateways:
                    thread.join(30)
        finally:
            workers[0].service.solve_many = original
            for worker in workers:
                worker.stop()
        assert not isinstance(result, ErrorResult)
        assert fast_elapsed < 0.5, (
            f"shard-1 batch waited {fast_elapsed:.2f}s behind shard 0's stalled batches"
        )
