"""HTTP gateway tier tests: routes, admission, rate limiting, drain.

The load-bearing property mirrors the backend suites: a batch served over
``POST /v1/queries`` must be **byte-identical** to encoding the serial
``QueryService`` answers with ``response_for`` — the HTTP tier adds
envelopes, never a second result encoding.  The rest covers the edges the
issue names: malformed JSON → 400, oversized bodies → 413, per-key rate
limiting → 429 with ``Retry-After``, pagination cursor round-trips,
``/health`` against a half-dead worker fleet, admission shed under induced
overload, and the SIGTERM drain dropping zero in-flight requests.

Most tests drive :meth:`GatewayApp.handle` directly (the app is socket-free
by design); ``TestSocketTier`` exercises the real ``ThreadingHTTPServer``
over ``urllib`` and the blocking ``run_gateway`` entry point.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import QueryError
from repro.service import QueryService, RemoteBackend, ShutdownSignal
from repro.service.codec import response_for
from repro.service.http import (
    DEFAULT_PAGE_SIZE,
    MAX_PAGE_SIZE,
    GatewayApp,
    GatewayConfig,
    HTTPGateway,
    RateLimiter,
    decode_cursor,
    encode_cursor,
    paginate,
    parse_rate_spec,
    run_gateway,
)
from repro.service.http.admission import AdmissionController

from ..conftest import make_random_calendars, make_random_graph
from .test_net import WorkerHarness


@pytest.fixture(scope="module")
def dataset():
    graph = make_random_graph(7, n=14, edge_prob=0.4)
    calendars = make_random_calendars(11, list(graph), horizon=12, availability=0.6)
    return graph, calendars


@pytest.fixture
def service(dataset):
    graph, calendars = dataset
    with QueryService(graph, calendars) as svc:
        yield svc


@pytest.fixture
def app(service):
    return GatewayApp(service)


def post(app, payload, headers=None, path="/v1/queries"):
    body = json.dumps(payload).encode("utf-8") if not isinstance(payload, bytes) else payload
    return app.handle("POST", path, headers or {}, body)


SG_PAYLOAD = {"initiator": 0, "group_size": 4, "radius": 2, "acquaintance": 1}
STG_PAYLOAD = {
    "initiator": 0,
    "group_size": 3,
    "radius": 2,
    "acquaintance": 1,
    "activity_length": 2,
}


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_unknown_route_404(self, app):
        response = app.handle("GET", "/nope")
        assert response.status == 404

    def test_wrong_method_on_queries_405(self, app):
        response = app.handle("GET", "/v1/queries")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"

    def test_wrong_method_on_health_405(self, app):
        response = app.handle("POST", "/health")
        assert response.status == 405
        assert response.headers["Allow"] == "GET"

    def test_trailing_slash_and_query_string_normalised(self, app):
        assert app.handle("GET", "/health/").status == 200
        assert app.handle("GET", "/health?probe=1").status == 200

    def test_request_counters_track_status_buckets(self, app):
        app.handle("GET", "/health")
        app.handle("GET", "/nope")
        counters = app.request_counters()
        assert counters["requests"] == 2
        assert counters["by_status"]["2xx"] == 1
        assert counters["by_status"]["4xx"] == 1
        assert counters["active"] == 0


# ----------------------------------------------------------------------
# single queries
# ----------------------------------------------------------------------
class TestSingleQuery:
    def test_single_matches_serial_encoding(self, app, service):
        payload = dict(SG_PAYLOAD, id="req-1")
        response = post(app, payload)
        assert response.status == 200
        expected = response_for("req-1", service.solve_many([_query_of(service, payload)])[0])
        assert json.dumps(response.body) == json.dumps(expected)

    def test_stats_opt_in(self, app):
        response = post(app, dict(STG_PAYLOAD, id=7, stats=True))
        assert response.status == 200
        assert "stats" in response.body
        assert response.body["id"] == 7

    def test_unknown_initiator_field_400(self, app):
        response = post(app, dict(SG_PAYLOAD, initiator="nobody-here"))
        assert response.status == 400
        assert "initiator" in response.body["fields"]

    def test_activity_longer_than_horizon_400(self, app, service):
        too_long = dict(STG_PAYLOAD, activity_length=service.calendars.horizon + 1)
        response = post(app, too_long)
        assert response.status == 400
        assert "horizon" in response.body["error"]

    def test_missing_required_fields_reported_together(self, app):
        response = post(app, {"radius": 0})
        assert response.status == 400
        fields = response.body["fields"]
        assert set(fields) == {"initiator", "group_size", "radius"}

    def test_alias_collision_400(self, app):
        response = post(app, dict(SG_PAYLOAD, p=4))
        assert response.status == 400
        assert "alias collision" in response.body["fields"]["p"]

    def test_non_object_request_400(self, app):
        response = post(app, [1, 2, 3])
        assert response.status == 400

    def test_malformed_json_400(self, app):
        response = post(app, b"{not json")
        assert response.status == 400
        assert "not valid JSON" in response.body["error"]

    def test_oversized_body_413(self, service):
        app = GatewayApp(service, GatewayConfig(max_body_bytes=64))
        response = post(app, b"x" * 65)
        assert response.status == 413


def _query_of(service, payload):
    from repro.service.codec import query_from_request

    return query_from_request(payload)


# ----------------------------------------------------------------------
# batches: the byte-identity property
# ----------------------------------------------------------------------
class TestBatchIdentity:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**30), data=st.data())
    def test_http_batch_byte_identical_to_serial(self, dataset, seed, data):
        """Any seeded batch over HTTP == serial solve_many + response_for."""
        graph, calendars = dataset
        people = sorted(graph)
        n = data.draw(st.integers(min_value=1, max_value=8))
        payloads = []
        for i in range(n):
            payload = {
                "id": f"q{i}",
                "initiator": data.draw(st.sampled_from(people)),
                "group_size": data.draw(st.integers(min_value=2, max_value=5)),
                "radius": data.draw(st.integers(min_value=1, max_value=3)),
                "acquaintance": data.draw(st.integers(min_value=0, max_value=3)),
            }
            if data.draw(st.booleans()):
                payload["activity_length"] = data.draw(st.integers(min_value=1, max_value=3))
            payloads.append(payload)

        with QueryService(graph, calendars) as gateway_service:
            app = GatewayApp(gateway_service)
            response = post(app, {"queries": payloads})
        assert response.status == 200

        with QueryService(graph, calendars) as reference:
            queries = [_query_of(reference, p) for p in payloads]
            results = reference.solve_many(queries)
            expected = [response_for(p["id"], r) for p, r in zip(payloads, results)]

        served = json.dumps(response.body["results"], separators=(",", ":")).encode()
        direct = json.dumps(expected, separators=(",", ":")).encode()
        assert served == direct
        assert response.body["total"] == len(payloads)
        assert response.body["next_cursor"] is None

    def test_batch_bad_query_reports_index(self, app):
        payloads = [dict(SG_PAYLOAD), {"initiator": 0, "group_size": "four"}]
        response = post(app, {"queries": payloads})
        assert response.status == 400
        assert response.body["index"] == 1
        assert "group_size" in response.body["fields"]

    def test_batch_activity_longer_than_horizon_reports_index(self, app, service):
        too_long = dict(STG_PAYLOAD, activity_length=service.calendars.horizon + 1)
        response = post(app, {"queries": [dict(SG_PAYLOAD), too_long]})
        assert response.status == 400
        assert response.body["index"] == 1
        assert "horizon" in response.body["error"]

    def test_batch_queries_must_be_list(self, app):
        response = post(app, {"queries": {"initiator": 0}})
        assert response.status == 400
        assert "queries" in response.body["fields"]

    def test_empty_batch_ok(self, app):
        response = post(app, {"queries": []})
        assert response.status == 200
        assert response.body == {"results": [], "total": 0, "next_cursor": None}


# ----------------------------------------------------------------------
# pagination
# ----------------------------------------------------------------------
class TestPagination:
    def test_cursor_round_trip(self):
        for offset in (0, 1, 255, 10_000):
            assert decode_cursor(encode_cursor(offset)) == offset

    def test_malformed_cursor_rejected(self):
        for bogus in ("", "!!!", encode_cursor(3)[:-2] + "zz", "eyJ4IjogMX0"):
            with pytest.raises(QueryError):
                decode_cursor(bogus)

    def test_paginate_walks_everything_exactly_once(self):
        items = list(range(23))
        seen, cursor = [], None
        while True:
            page, cursor, total = paginate(items, cursor, 5)
            seen.extend(page)
            assert total == 23
            if cursor is None:
                break
        assert seen == items

    def test_page_size_clamped_to_max(self):
        page, cursor, _ = paginate(list(range(MAX_PAGE_SIZE + 10)), None, MAX_PAGE_SIZE + 10)
        assert len(page) == MAX_PAGE_SIZE
        assert cursor is not None

    def test_default_page_size(self):
        page, _, _ = paginate(list(range(DEFAULT_PAGE_SIZE + 1)), None, None)
        assert len(page) == DEFAULT_PAGE_SIZE

    def test_offset_past_end_gives_empty_final_page(self):
        page, cursor, total = paginate([1, 2], encode_cursor(50), 10)
        assert page == [] and cursor is None and total == 2

    def test_http_cursor_round_trip_collects_full_batch(self, app, service, dataset):
        graph, _ = dataset
        people = sorted(graph)
        payloads = [
            dict(SG_PAYLOAD, id=i, initiator=people[i % len(people)]) for i in range(9)
        ]
        collected, cursor = [], None
        for _ in range(10):
            body = {"queries": payloads, "page_size": 4}
            if cursor is not None:
                body["cursor"] = cursor
            response = post(app, body)
            assert response.status == 200
            assert response.body["total"] == 9
            collected.extend(response.body["results"])
            cursor = response.body["next_cursor"]
            if cursor is None:
                break
        queries = [_query_of(service, p) for p in payloads]
        expected = [
            response_for(p["id"], r) for p, r in zip(payloads, service.solve_many(queries))
        ]
        assert json.dumps(collected) == json.dumps(expected)

    def test_bad_cursor_in_request_400(self, app, service):
        response = post(app, {"queries": [dict(SG_PAYLOAD)], "cursor": "???"})
        assert response.status == 400
        assert service.stats().queries == 0  # rejected before any solve

    def test_bad_page_size_400(self, app, service):
        response = post(app, {"queries": [dict(SG_PAYLOAD)], "page_size": 0})
        assert response.status == 400
        assert service.stats().queries == 0  # rejected before any solve


# ----------------------------------------------------------------------
# rate limiting
# ----------------------------------------------------------------------
class TestRateLimit:
    def test_parse_rate_spec(self):
        assert parse_rate_spec("10") == (10.0, 10.0)
        assert parse_rate_spec("2.5:40") == (2.5, 40.0)
        assert parse_rate_spec("0.5") == (0.5, 1.0)
        for bogus in ("", "fast", "0", "-1", "5:0"):
            with pytest.raises(ValueError):
                parse_rate_spec(bogus)

    def test_token_bucket_with_injected_clock(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert limiter.allow("k")[0] and limiter.allow("k")[0]
        allowed, retry_after = limiter.allow("k")
        assert not allowed and retry_after == pytest.approx(1.0)
        clock[0] += 1.0
        assert limiter.allow("k")[0]
        # Keys are independent buckets.
        assert limiter.allow("other")[0]

    def test_rate_limited_429_with_retry_after(self, service):
        app = GatewayApp(service, GatewayConfig(rate=1.0, burst=1.0))
        clock = [0.0]
        app.ratelimiter = RateLimiter(1.0, 1.0, clock=lambda: clock[0])
        headers = {"X-API-Key": "tenant-a"}
        assert post(app, SG_PAYLOAD, headers).status == 200
        response = post(app, SG_PAYLOAD, headers)
        assert response.status == 429
        assert int(response.headers["Retry-After"]) >= 1
        assert response.body["retry_after"] >= 1
        # Another key is unaffected; the same key recovers after refill.
        assert post(app, SG_PAYLOAD, {"X-API-Key": "tenant-b"}).status == 200
        clock[0] += 1.5
        assert post(app, SG_PAYLOAD, headers).status == 200

    def test_health_exempt_from_rate_limit(self, service):
        app = GatewayApp(service, GatewayConfig(rate=1.0, burst=1.0))
        app.ratelimiter = RateLimiter(1.0, 1.0, clock=lambda: 0.0)
        headers = {"X-API-Key": "tenant-a"}
        assert post(app, SG_PAYLOAD, headers).status == 200
        for _ in range(5):
            assert app.handle("GET", "/health", headers).status == 200

    def test_prune_keeps_bucket_map_bounded(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, max_keys=8, clock=lambda: clock[0])
        for i in range(9):
            limiter.allow(f"key-{i}")
        clock[0] += 10.0  # every bucket refills to full -> prunable
        limiter.allow("fresh")
        assert limiter.snapshot()["keys"] <= 8


# ----------------------------------------------------------------------
# admission control + load shedding
# ----------------------------------------------------------------------
class _SlowService:
    """Duck-typed service whose solve_many blocks until released."""

    def __init__(self, service, gate: threading.Event, entered: threading.Event):
        self._service = service
        self._gate = gate
        self._entered = entered

    def __getattr__(self, name):
        return getattr(self._service, name)

    def solve_many(self, queries, **kwargs):
        self._entered.set()
        assert self._gate.wait(10), "test never released the solve gate"
        return self._service.solve_many(queries, **kwargs)


class TestAdmission:
    def test_controller_shed_beyond_queue(self):
        controller = AdmissionController(max_concurrency=1, max_queue=0)
        ticket = controller.try_admit()
        assert ticket is not None and not ticket.queued
        assert controller.try_admit() is None  # queue full -> shed
        ticket.release()
        assert controller.try_admit() is not None
        snap = controller.snapshot()
        assert snap["shed"] == 1 and snap["admitted"] == 2

    def test_controller_queued_admission(self):
        controller = AdmissionController(max_concurrency=1, max_queue=1)
        first = controller.try_admit()
        waited = []

        def waiter():
            waited.append(controller.try_admit(timeout=5.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        first.release()
        thread.join(5)
        assert waited[0] is not None and waited[0].queued
        waited[0].release()

    def test_controller_drain_wakes_queued_waiters(self):
        controller = AdmissionController(max_concurrency=1, max_queue=1)
        first = controller.try_admit()
        refused = []
        thread = threading.Thread(target=lambda: refused.append(controller.try_admit(timeout=5.0)))
        thread.start()
        time.sleep(0.05)
        controller.begin_drain()
        thread.join(5)
        assert refused == [None]
        assert controller.snapshot()["refused_draining"] == 1
        first.release()

    def test_overload_sheds_429_with_retry_after(self, service):
        gate, entered = threading.Event(), threading.Event()
        slow = _SlowService(service, gate, entered)
        app = GatewayApp(slow, GatewayConfig(max_concurrency=1, max_queue=0, admit_timeout=0.2))
        first_status = []
        blocker = threading.Thread(
            target=lambda: first_status.append(post(app, SG_PAYLOAD).status)
        )
        blocker.start()
        assert entered.wait(10)
        try:
            response = post(app, SG_PAYLOAD)
            assert response.status == 429
            assert "shed" in response.body["error"]
            assert int(response.headers["Retry-After"]) >= 1
            # Health answers while the gateway is saturated.
            assert app.handle("GET", "/health").status == 200
        finally:
            gate.set()
            blocker.join(10)
        assert first_status == [200]
        assert app.admission.snapshot()["shed"] == 1

    def test_draining_refuses_with_503(self, app):
        app.begin_drain()
        response = post(app, SG_PAYLOAD)
        assert response.status == 503
        assert "draining" in response.body["error"]
        assert app.handle("GET", "/health").status == 503
        assert app.handle("GET", "/health").body["status"] == "draining"


# ----------------------------------------------------------------------
# health + stats
# ----------------------------------------------------------------------
class TestHealth:
    def test_ok_over_local_backend(self, app, service):
        response = app.handle("GET", "/health")
        assert response.status == 200
        body = response.body
        assert body["status"] == "ok"
        assert body["backend"] == service.backend_name
        assert body["live_version"] == service.live_version
        assert set(body["cache"]) == {"hits", "misses", "size", "max_size", "hit_rate"}

    def test_half_dead_fleet_reports_degraded_503(self, dataset):
        graph, calendars = dataset
        harness = WorkerHarness(_Dataset(graph, calendars)).start()
        try:
            backend = RemoteBackend(
                [harness.address, "127.0.0.1:9"], timeout=2.0
            )
            with QueryService(graph, calendars, backend=backend) as svc:
                app = GatewayApp(svc)
                response = app.handle("GET", "/health")
                assert response.status == 503
                assert response.body["status"] == "degraded"
                workers = response.body["workers"]
                assert [w["alive"] for w in workers] == [True, False]
                assert workers[0]["stats"] is not None
                assert workers[1]["stats"] is None
        finally:
            harness.stop()

    def test_stats_endpoint_shape(self, app):
        post(app, SG_PAYLOAD)
        response = app.handle("GET", "/stats")
        assert response.status == 200
        body = response.body
        assert body["service"]["queries"] >= 1
        assert body["admission"]["admitted"] == 1
        assert body["ratelimit"]["enabled"] is False
        assert body["gateway"]["requests"] >= 1


class _Dataset:
    """Minimal dataset shim for WorkerHarness (graph + calendars attrs)."""

    def __init__(self, graph, calendars):
        self.graph = graph
        self.calendars = calendars


# ----------------------------------------------------------------------
# the socket tier: real HTTP over a real port
# ----------------------------------------------------------------------
def _http(url, payload=None, headers=None, method=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(url, data=data, method=method)
    for name, value in (headers or {}).items():
        request.add_header(name, value)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=10) as raw:
            return raw.status, json.loads(raw.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestSocketTier:
    def test_end_to_end_single_query(self, dataset):
        graph, calendars = dataset
        with QueryService(graph, calendars) as svc:
            with HTTPGateway(svc) as gateway:
                status, body = _http(f"{gateway.url}/v1/queries", dict(SG_PAYLOAD, id=1))
                assert status == 200
                expected = response_for(1, svc.solve_many([_query_of(svc, SG_PAYLOAD)])[0])
                assert json.dumps(body) == json.dumps(expected)
                status, health = _http(f"{gateway.url}/health")
                assert status == 200 and health["status"] == "ok"

    def test_oversized_content_length_413_without_reading(self, dataset):
        graph, calendars = dataset
        with QueryService(graph, calendars) as svc:
            config = GatewayConfig(max_body_bytes=128)
            with HTTPGateway(svc, config=config) as gateway:
                status, body = _http(
                    f"{gateway.url}/v1/queries", {"filler": "y" * 4096, **SG_PAYLOAD}
                )
                assert status == 413
                assert "exceeds" in body["error"]

    def test_run_gateway_drains_in_flight_on_sigterm(self, dataset):
        """The acceptance drain: SIGTERM mid-request drops nothing."""
        graph, calendars = dataset
        gate, entered = threading.Event(), threading.Event()
        svc = QueryService(graph, calendars)
        slow = _SlowService(svc, gate, entered)
        stop = ShutdownSignal()  # never installed: tests trigger() it
        ready = threading.Event()
        ports = []

        real_start = HTTPGateway.start

        def capturing_start(self):
            result = real_start(self)
            ports.append(self.port)
            ready.set()
            return result

        HTTPGateway.start = capturing_start
        try:
            runner = threading.Thread(
                target=lambda: run_gateway(slow, port=0, stop=stop), daemon=True
            )
            runner.start()
            assert ready.wait(10)
            url = f"http://127.0.0.1:{ports[0]}"
            outcome = []
            client = threading.Thread(
                target=lambda: outcome.append(_http(f"{url}/v1/queries", SG_PAYLOAD))
            )
            client.start()
            assert entered.wait(10)  # the request is in flight
            stop.trigger()  # SIGTERM equivalent
            time.sleep(0.1)  # gateway begins draining
            gate.set()  # the solve completes during the drain
            client.join(10)
            runner.join(10)
            assert not runner.is_alive()
            status, body = outcome[0]
            assert status == 200  # the in-flight request was answered
            assert body["feasible"] in (True, False)
        finally:
            HTTPGateway.start = real_start
            gate.set()
