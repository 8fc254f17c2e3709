"""One request contract behind the three front doors.

The JSONL loop (``serve_jsonl``), the TCP worker (a ``batch`` frame) and the
HTTP gateway (``POST /v1/queries``) all admit requests through
``QueryService.parse_request``.  The same mixed batch — two valid queries
beside every kind of bad entry — must therefore get the same per-entry
accept/reject decision on every door, the same ``response_for`` body for each
accepted entry, and count each answered query exactly once.
"""

import io
import json

import pytest

from repro.experiments.workloads import workload
from repro.service import GatewayApp, QueryService, serve_jsonl
from repro.service.codec import decode_result, query_from_request, response_for
from repro.service.net.protocol import recv_frame, send_frame

from .test_net import WorkerHarness, _client_socket


@pytest.fixture(scope="module")
def dataset():
    return workload(network_size=60, schedule_days=1, seed=7)


def mixed_batch(dataset):
    """Two valid queries, then one entry per way a request can be bad."""
    people = dataset.people
    too_long = dataset.calendars.horizon + 1
    return [
        {"id": "sgq", "initiator": people[0], "p": 3, "k": 1},
        {"id": "stgq", "initiator": people[1], "p": 3, "k": 1, "m": 2},
        {"id": "unknown-initiator", "initiator": 99999, "p": 3},
        {"id": "m-above-horizon", "initiator": people[0], "p": 3, "m": too_long},
        {"id": "alias-collision", "initiator": people[0], "p": 3, "group_size": 4},
        {"id": "float-s", "initiator": people[0], "p": 3, "s": 1.5},
        {"id": "bool-p", "initiator": people[0], "p": True},
        {"id": "list-initiator", "initiator": [1], "p": 3},
    ]


#: Accept (True) or reject (False), entry by entry of :func:`mixed_batch`.
DECISIONS = [True, True, False, False, False, False, False, False]


def _jsonl_door(dataset, payloads):
    with QueryService(dataset.graph, dataset.calendars) as service:
        lines = "".join(json.dumps(payload) + "\n" for payload in payloads)
        out = io.StringIO()
        serve_jsonl(service, io.StringIO(lines), out, batch_size=len(payloads))
        bodies = [json.loads(line) for line in out.getvalue().splitlines()]
        return bodies, service.stats().queries


def _tcp_door(dataset, payloads):
    harness = WorkerHarness(dataset).start()
    try:
        sock = _client_socket(harness.address)
        try:
            send_frame(sock, {"type": "batch", "id": 1, "requests": payloads})
            reply = recv_frame(sock)
        finally:
            sock.close()
        queries = harness.service.stats().queries
    finally:
        harness.stop()
    bodies = [
        {"id": payload["id"], **entry}
        if "error" in entry
        else response_for(payload["id"], decode_result(entry))
        for payload, entry in zip(payloads, reply["results"])
    ]
    return bodies, queries


def _http_door(dataset, payloads):
    with QueryService(dataset.graph, dataset.calendars) as service:
        app = GatewayApp(service)
        bodies = [
            app.handle("POST", "/v1/queries", {}, json.dumps(payload).encode()).body
            for payload in payloads
        ]
        return bodies, service.stats().queries


DOORS = {"jsonl": _jsonl_door, "tcp": _tcp_door, "http": _http_door}


@pytest.mark.parametrize("door", sorted(DOORS))
def test_every_door_answers_the_mixed_batch_alike(dataset, door):
    payloads = mixed_batch(dataset)
    with QueryService(dataset.graph, dataset.calendars) as reference:
        expected = [
            response_for(payload["id"], reference.solve(query_from_request(payload)))
            if accepted
            else None
            for payload, accepted in zip(payloads, DECISIONS)
        ]
    bodies, queries = DOORS[door](dataset, payloads)
    assert ["error" not in body for body in bodies] == DECISIONS
    for body, want in zip(bodies, expected):
        if want is not None:
            assert json.dumps(body) == json.dumps(want)
    assert queries == DECISIONS.count(True)


def test_http_batch_rejects_at_the_first_bad_entry(dataset):
    with QueryService(dataset.graph, dataset.calendars) as service:
        body = json.dumps({"queries": mixed_batch(dataset)}).encode()
        response = GatewayApp(service).handle("POST", "/v1/queries", {}, body)
        assert response.status == 400
        assert response.body["index"] == DECISIONS.index(False)
        assert service.stats().queries == 0
