"""Route handlers: parsed request in, status + JSON body out.

Transport-agnostic on purpose — every handler takes the
:class:`~repro.service.http.app.GatewayApp` plus plain Python values and
returns a :class:`RouteResponse`; :mod:`.app` owns the socket/HTTP
mechanics (body reading, header writing, admission, rate limiting,
logging).  Tests drive these functions directly without opening a port.

The one rule that matters for correctness: **results are encoded by
:func:`repro.service.codec.response_for` and nothing else.**  The HTTP
tier adds envelopes (pagination, error shapes) around the same response
objects the JSONL loop and the TCP wire produce, so a result served over
HTTP is byte-identical to the serial ``QueryService`` answer — the
property the test suite and the CI smoke assert.

Every payload is admitted by :meth:`~repro.service.QueryService.parse_request`,
the same check the JSONL loop and the TCP worker run, before any query is
solved: bad fields are client mistakes → 400 with a field-level ``fields``
map (and ``index`` inside a batch), and so are an initiator absent from the
graph and an STGQ longer than the planning horizon.  Only a fully admitted
batch reaches ``solve_many``, which answers all of it or fails all of it
(500, or 503 when the fleet is unavailable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...exceptions import QueryError, ReproError, VertexNotFoundError, WorkerUnavailableError
from ..codec import RequestError, response_for, wants_stats
from .pagination import clamp_page_size, decode_cursor, paginate

__all__ = [
    "RouteResponse",
    "error_response",
    "handle_health",
    "handle_queries",
    "handle_stats",
]

#: Queries accepted in one batch request.  Large workloads paginate the
#: *results*; the request itself must still parse in bounded memory.
MAX_BATCH_QUERIES = 4096


@dataclass
class RouteResponse:
    """One handler outcome: HTTP status, JSON body, extra headers."""

    status: int
    body: Dict[str, Any]
    headers: Dict[str, str] = field(default_factory=dict)


def error_response(
    status: int,
    message: str,
    fields: Optional[Dict[str, str]] = None,
    index: Optional[int] = None,
    **headers: str,
) -> RouteResponse:
    """Uniform error envelope: ``{"error": ..., "fields": {...}, "index": i}``."""
    body: Dict[str, Any] = {"error": message}
    if fields:
        body["fields"] = fields
    if index is not None:
        body["index"] = index
    return RouteResponse(status, body, dict(headers))


# ----------------------------------------------------------------------
# POST /v1/queries
# ----------------------------------------------------------------------
def _answer(
    app: "Any", payloads: List[Any]
) -> Tuple[List[Dict[str, Any]], Optional[RouteResponse]]:
    """Admit every payload, then solve them as one batch.

    Returns the :func:`response_for` bodies in order, or the error response:
    400 for the first payload ``parse_request`` rejects (bad fields and an
    unknown initiator fill ``fields``; ``index`` is set inside a batch), 503
    when the worker fleet is unavailable, 500 for any other solve failure.
    """
    queries: List[Any] = []
    for index, payload in enumerate(payloads):
        position = index if len(payloads) > 1 else None
        try:
            queries.append(app.service.parse_request(payload))
        except RequestError as exc:
            return [], error_response(400, "invalid query", fields=exc.fields, index=position)
        except VertexNotFoundError as exc:
            fields = {"initiator": f"unknown vertex {exc.vertex!r}"}
            return [], error_response(400, "invalid query", fields=fields, index=position)
        except QueryError as exc:
            return [], error_response(400, str(exc), index=position)
    try:
        results = app.service.solve_many(queries)
    except WorkerUnavailableError as exc:
        return [], error_response(503, f"worker fleet unavailable: {exc}", **{"Retry-After": "1"})
    except ReproError as exc:
        return [], error_response(500, f"query execution failed: {exc}")
    responses = [
        response_for(payload.get("id"), result, include_stats=wants_stats(payload))
        for payload, result in zip(payloads, results)
    ]
    return responses, None


def handle_queries(app: "Any", body: bytes) -> RouteResponse:
    """``POST /v1/queries``: one query object, or ``{"queries": [...]}``.

    Single-object requests return the bare :func:`response_for` object.
    Batch requests return a paginated envelope::

        {"results": [...], "total": N, "next_cursor": "..." | null}

    honouring optional ``page_size`` and ``cursor`` body fields.
    """
    try:
        document = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return error_response(400, f"request body is not valid JSON: {exc}")

    if isinstance(document, dict) and "queries" in document:
        payloads = document["queries"]
        if not isinstance(payloads, list):
            return error_response(
                400, "invalid batch", fields={"queries": "must be an array of query objects"}
            )
        if len(payloads) > MAX_BATCH_QUERIES:
            return error_response(
                400,
                "invalid batch",
                fields={"queries": f"at most {MAX_BATCH_QUERIES} queries per request"},
            )
        return _handle_batch(app, document, payloads)
    if isinstance(document, dict):
        return _handle_single(app, document)
    return error_response(
        400, f"request must be a JSON object, got {type(document).__name__}"
    )


def _handle_single(app: "Any", payload: Dict[str, Any]) -> RouteResponse:
    responses, error = _answer(app, [payload])
    return error or RouteResponse(200, responses[0])


def _handle_batch(app: "Any", document: Dict[str, Any], payloads: List[Any]) -> RouteResponse:
    cursor, page_size = document.get("cursor"), document.get("page_size")
    try:  # a bad cursor or page size must fail before any query is solved
        if cursor is not None:
            decode_cursor(cursor)
        clamp_page_size(page_size)
    except QueryError as exc:
        return error_response(400, str(exc))
    responses, error = _answer(app, payloads)
    if error is not None:
        return error
    page, next_cursor, total = paginate(responses, cursor, page_size)
    return RouteResponse(200, {"results": page, "total": total, "next_cursor": next_cursor})


# ----------------------------------------------------------------------
# GET /health
# ----------------------------------------------------------------------
def handle_health(app: "Any") -> RouteResponse:
    """Fleet health: 200 ``ok`` / 503 ``degraded`` (load balancers eject on 503).

    Bypasses admission control and rate limiting in :mod:`.app` — a health
    probe must answer exactly when the gateway is saturated, and an LB's
    probes must never be shed as if they were traffic.
    """
    service = app.service
    body: Dict[str, Any] = {
        "status": "ok",
        "backend": service.backend_name,
        "live_version": service.live_version,
        "placement_version": getattr(service.backend, "placement_version", 0),
        "draining": app.admission.draining,
        "cache": service.cache_info().as_dict(),
    }
    backend = service.backend
    worker_stats = getattr(backend, "worker_stats", None)
    if callable(worker_stats):
        addresses = list(getattr(backend, "addresses", []))
        stats = worker_stats()
        workers = []
        for position, per_worker in enumerate(stats):
            address = addresses[position] if position < len(addresses) else str(position)
            workers.append(
                {
                    "address": address,
                    "alive": per_worker is not None,
                    "stats": per_worker,
                }
            )
        body["workers"] = workers
        if any(not worker["alive"] for worker in workers):
            body["status"] = "degraded"
    if app.admission.draining:
        body["status"] = "draining"
    status = 200 if body["status"] == "ok" else 503
    return RouteResponse(status, body)


# ----------------------------------------------------------------------
# GET /stats
# ----------------------------------------------------------------------
def handle_stats(app: "Any") -> RouteResponse:
    """Gateway observability: service counters + admission/rate-limit state.

    ``routing`` is the sharded-backend routing report (strategy, placement
    version, rolling imbalance, cumulative per-worker routed counts — the
    per-worker load surface) and ``null`` for backends that do not route.
    """
    service = app.service
    return RouteResponse(
        200,
        {
            "service": service.stats().as_dict(),
            "cache": service.cache_info().as_dict(),
            "backend": service.backend_name,
            "live_version": service.live_version,
            "routing": service.route_report(),
            "admission": app.admission.snapshot(),
            "ratelimit": app.ratelimiter.snapshot(),
            "gateway": app.request_counters(),
        },
    )
