"""Tests for the asyncio front-end and the JSONL request loop."""

import asyncio
import io
import json

import pytest

from repro.core import SGQuery, STGQuery
from repro.exceptions import QueryError
from repro.experiments.workloads import workload
from repro.service import QueryService, serve_jsonl
from repro.service.codec import request_for
from repro.service.jsonl import query_from_request, response_for


@pytest.fixture(scope="module")
def dataset():
    return workload(network_size=60, schedule_days=1, seed=7)


@pytest.fixture
def service(dataset):
    with QueryService(dataset.graph, dataset.calendars, max_workers=2) as svc:
        yield svc


class TestAsyncFrontend:
    def test_solve_many_async_matches_sync(self, dataset, service):
        batch = [
            SGQuery(initiator=initiator, group_size=4, radius=1, acquaintance=2)
            for initiator in dataset.people[:6]
        ]
        sync_results = service.solve_many(batch)
        async_results = asyncio.run(service.answer_async([request_for(q) for q in batch]))
        assert [r.members for r in async_results] == [r.members for r in sync_results]

    def test_pipelined_batches_run_concurrently(self, dataset, service):
        batches = [
            [
                SGQuery(initiator=initiator, group_size=p, radius=1, acquaintance=2)
                for initiator in dataset.people[:4]
            ]
            for p in (3, 4, 5)
        ]

        async def pipeline():
            tasks = [
                asyncio.ensure_future(service.answer_async([request_for(q) for q in b]))
                for b in batches
            ]
            return await asyncio.gather(*tasks)

        all_results = asyncio.run(pipeline())
        assert [len(results) for results in all_results] == [4, 4, 4]
        for batch, results in zip(batches, all_results):
            direct = service.solve_many(batch)
            assert [r.members for r in results] == [r.members for r in direct]


class TestRequestParsing:
    def test_aliases(self):
        query = query_from_request({"initiator": 1, "p": 4, "s": 2, "k": 1, "m": 3})
        assert isinstance(query, STGQuery)
        assert (query.group_size, query.radius, query.acquaintance) == (4, 2, 1)
        assert query.activity_length == 3

    def test_long_names_and_sgq_default(self):
        query = query_from_request({"initiator": "alice", "group_size": 3})
        assert isinstance(query, SGQuery)
        assert (query.radius, query.acquaintance) == (1, 1)

    def test_alias_collision_rejected(self):
        with pytest.raises(QueryError):
            query_from_request({"initiator": 1, "p": 4, "group_size": 5})

    def test_missing_fields_rejected(self):
        with pytest.raises(QueryError):
            query_from_request({"p": 4})
        with pytest.raises(QueryError):
            query_from_request({"initiator": 1})
        with pytest.raises(QueryError):
            query_from_request([1, 2, 3])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(QueryError):
            query_from_request({"initiator": 1, "p": 0})
        with pytest.raises(QueryError):
            query_from_request({"initiator": 1, "p": "four"})

    def test_response_total_distance_null_when_infeasible(self, dataset, service):
        # An impossible clique demand: feasible=False must encode cleanly.
        query = SGQuery(initiator=dataset.people[0], group_size=40, radius=1, acquaintance=0)
        result = service.solve(query)
        assert result.feasible is False
        payload = response_for(9, result)
        assert payload["total_distance"] is None
        assert json.dumps(payload)  # JSON-safe (no Infinity)


class TestServeJsonl:
    def _run(self, service, lines, **kwargs):
        out = io.StringIO()
        served = serve_jsonl(service, io.StringIO("\n".join(lines) + "\n"), out, **kwargs)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        return served, responses

    def test_order_and_errors_preserved(self, dataset, service):
        people = dataset.people
        lines = [
            json.dumps({"id": 1, "initiator": people[0], "p": 4, "k": 2}),
            "{broken",
            json.dumps({"id": 3, "initiator": people[1], "p": 3, "k": 1, "m": 2}),
            json.dumps({"id": 4, "p": 4}),
            "",
            json.dumps({"id": 5, "initiator": people[2], "p": 3, "k": 1}),
        ]
        served, responses = self._run(service, lines, batch_size=2)
        assert served == 5  # blank line skipped
        assert [r["id"] for r in responses] == [1, None, 3, 4, 5]
        assert "error" in responses[1]
        assert "error" in responses[3]
        assert responses[0]["solver"] == "SGSelect"
        assert responses[2]["solver"] == "STGSelect"
        if responses[2]["feasible"]:
            assert len(responses[2]["period"]) == 2

    def test_matches_direct_solve(self, dataset, service):
        people = dataset.people
        lines = [
            json.dumps({"id": i, "initiator": people[i % 5], "p": 4, "k": 2})
            for i in range(12)
        ]
        served, responses = self._run(service, lines, batch_size=4)
        assert served == 12
        for i, response in enumerate(responses):
            direct = service.solve(
                SGQuery(initiator=people[i % 5], group_size=4, radius=1, acquaintance=2)
            )
            assert response["feasible"] == direct.feasible
            if direct.feasible:
                assert response["members"] == direct.sorted_members()
                assert response["total_distance"] == pytest.approx(direct.total_distance)

    def test_process_backend_loop(self, dataset):
        people = dataset.people
        lines = [
            json.dumps({"id": i, "initiator": people[i % 3], "p": 3, "k": 1})
            for i in range(6)
        ]
        with QueryService(
            dataset.graph, dataset.calendars, max_workers=2, backend="process"
        ) as svc:
            served, responses = self._run(svc, lines, batch_size=3)
        assert served == 6
        assert [r["id"] for r in responses] == list(range(6))

    def test_rejects_bad_batch_size(self, service):
        with pytest.raises(QueryError):
            serve_jsonl(service, io.StringIO(""), io.StringIO(), batch_size=0)

    def test_empty_input(self, service):
        out = io.StringIO()
        assert serve_jsonl(service, io.StringIO(""), out) == 0
        assert out.getvalue() == ""


class TestErrorRecoveryAndClients:
    def test_solver_error_becomes_error_response(self, dataset, service):
        # Initiator 99999 is not in the graph: parsing succeeds, solving
        # raises inside the library — the loop must answer with an error
        # object and keep serving the rest of the batch.
        people = dataset.people
        too_long = dataset.calendars.horizon + 1
        lines = [
            json.dumps({"id": 1, "initiator": people[0], "p": 3, "k": 1}),
            json.dumps({"id": 2, "initiator": 99999, "p": 3, "k": 1}),
            json.dumps({"id": 3, "initiator": people[1], "p": 3, "k": 1}),
            json.dumps({"id": 4, "initiator": people[1], "p": 3, "k": 1, "m": too_long}),
        ]
        out = io.StringIO()
        served = serve_jsonl(service, io.StringIO("\n".join(lines) + "\n"), out, batch_size=4)
        responses = [json.loads(line) for line in out.getvalue().splitlines()]
        assert served == 4
        assert [r["id"] for r in responses] == [1, 2, 3, 4]
        assert "feasible" in responses[0]
        assert "error" in responses[1] and "99999" in responses[1]["error"]
        assert "feasible" in responses[2]
        assert "error" in responses[3] and "horizon" in responses[3]["error"]
        # Each good query is counted exactly once (no fallback double count).
        assert service.stats().queries == 2

    def test_request_response_client_does_not_deadlock(self, dataset):
        # A strict request/response client writes one request, then blocks
        # reading the response before sending the next.  The serve loop must
        # flush pending answers instead of waiting for a full batch.
        import os
        import threading

        in_read_fd, in_write_fd = os.pipe()
        out_read_fd, out_write_fd = os.pipe()
        server_in = os.fdopen(in_read_fd, "r")
        client_out = os.fdopen(in_write_fd, "w")
        client_in = os.fdopen(out_read_fd, "r")
        server_out = os.fdopen(out_write_fd, "w")

        with QueryService(dataset.graph, dataset.calendars, max_workers=2) as svc:
            server = threading.Thread(
                target=serve_jsonl, args=(svc, server_in, server_out), kwargs={"batch_size": 64}
            )
            server.start()
            got = []
            try:
                for i in range(3):
                    client_out.write(
                        json.dumps({"id": i, "initiator": dataset.people[i], "p": 3, "k": 1})
                        + "\n"
                    )
                    client_out.flush()
                    got.append(json.loads(client_in.readline()))  # blocks pre-fix
            finally:
                client_out.close()
                server.join(timeout=15)
        assert not server.is_alive()
        assert [r["id"] for r in got] == [0, 1, 2]
        for handle in (server_in, client_in, server_out):
            handle.close()
