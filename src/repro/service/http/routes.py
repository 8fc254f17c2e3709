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

Validation is two-phase, mirroring the service: *shape* errors (missing or
mistyped fields, bad cursor) are client mistakes → 400 with a field-level
``fields`` map (and ``index`` inside a batch); an initiator absent from the
graph, or an STGQ longer than the planning horizon, is also caught up front
(same 400) because ``solve_many`` is all-or-nothing and one bad query must
not fail its batchmates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...exceptions import QueryError, ReproError, VertexNotFoundError, WorkerUnavailableError
from ..codec import FIELD_ALIASES, query_from_request, response_for, wants_stats
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

#: Request keys (post-aliasing) with their validation rules, used to turn a
#: rejected request into a per-field error map.  ``activity_length`` is
#: optional (absent = SGQ); the others default server-side.
_FIELD_RULES: Dict[str, Tuple[bool, int, str]] = {
    # name -> (required, minimum, description)
    "initiator": (True, 0, "vertex id of the query initiator"),
    "group_size": (True, 1, "group size p (>= 1)"),
    "radius": (False, 1, "social radius s (>= 1)"),
    "acquaintance": (False, 0, "acquaintance constraint k (>= 0)"),
    "activity_length": (False, 1, "activity length m (>= 1; omit for SGQ)"),
}


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
def _field_errors(payload: Dict[str, Any]) -> Dict[str, str]:
    """Per-field problems in one request payload (empty dict = clean shape).

    Reports *every* broken field at once — a client fixing a request should
    not need one round-trip per mistake.  Keys are the canonical long
    names; a broken alias is reported under the alias the client sent.
    """
    errors: Dict[str, str] = {}
    seen: Dict[str, str] = {}
    for key, value in payload.items():
        name = FIELD_ALIASES.get(key, key)
        if name not in _FIELD_RULES:
            continue
        if name in seen:
            errors[key] = f"duplicates field {seen[name]!r} (alias collision)"
            continue
        seen[name] = key
        required, minimum, description = _FIELD_RULES[name]
        if name == "initiator":
            if not isinstance(value, (int, str)) or isinstance(value, bool):
                errors[key] = f"must be a vertex id (int or string): {description}"
        elif not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            errors[key] = f"must be an integer >= {minimum}: {description}"
    for name, (required, _minimum, description) in _FIELD_RULES.items():
        if required and name not in seen:
            errors[name] = f"required: {description}"
    return errors


def _parse_queries(
    app: "Any", payloads: List[Any]
) -> Tuple[List[Any], List[bool], Optional[RouteResponse]]:
    """Validate every payload up front; first failure → field-level 400.

    Returns ``(queries, stats_flags, error)`` with ``error=None`` on
    success.  Initiator existence is checked here too (the service's own
    ``_validate`` would abort the whole batch at solve time with a 500-ish
    surprise; here it is the client's 400 with the offending index).
    """
    queries: List[Any] = []
    stats_flags: List[bool] = []
    for index, payload in enumerate(payloads):
        position = index if len(payloads) > 1 else None
        if not isinstance(payload, dict):
            return [], [], error_response(
                400,
                f"each query must be a JSON object, got {type(payload).__name__}",
                index=position,
            )
        fields = _field_errors(payload)
        if fields:
            return [], [], error_response(400, "invalid query", fields=fields, index=position)
        try:
            query = query_from_request(payload)
            app.service._validate(query)
        except VertexNotFoundError:
            return [], [], error_response(
                400,
                "invalid query",
                fields={"initiator": f"unknown vertex {payload_initiator(payload)!r}"},
                index=position,
            )
        except QueryError as exc:
            return [], [], error_response(400, str(exc), index=position)
        queries.append(query)
        stats_flags.append(wants_stats(payload))
    return queries, stats_flags, None


def payload_initiator(payload: Dict[str, Any]) -> Any:
    return payload.get("initiator", payload.get("i"))


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
    queries, stats_flags, error = _parse_queries(app, [payload])
    if error is not None:
        return error
    try:
        results = app.service.solve_many(queries)
    except ReproError as exc:
        return _solve_failure(exc)
    return RouteResponse(
        200, response_for(payload.get("id"), results[0], include_stats=stats_flags[0])
    )


def _handle_batch(
    app: "Any", document: Dict[str, Any], payloads: List[Any]
) -> RouteResponse:
    queries, stats_flags, error = _parse_queries(app, payloads)
    if error is not None:
        return error
    cursor, page_size = document.get("cursor"), document.get("page_size")
    try:  # a bad cursor or page size must fail before any query is solved
        if cursor is not None:
            decode_cursor(cursor)
        clamp_page_size(page_size)
    except QueryError as exc:
        return error_response(400, str(exc))
    try:
        responses: List[Dict[str, Any]] = []
        if queries:
            results = app.service.solve_many(queries)
            responses = [
                response_for(payload.get("id"), result, include_stats=flag)
                for payload, result, flag in zip(payloads, results, stats_flags)
            ]
    except ReproError as exc:
        return _solve_failure(exc)
    page, next_cursor, total = paginate(responses, cursor, page_size)
    return RouteResponse(
        200, {"results": page, "total": total, "next_cursor": next_cursor}
    )


def _solve_failure(exc: ReproError) -> RouteResponse:
    """Backend failure mid-solve: the request was fine, the fleet was not."""
    if isinstance(exc, WorkerUnavailableError):
        return error_response(503, f"worker fleet unavailable: {exc}", **{"Retry-After": "1"})
    return error_response(500, f"query execution failed: {exc}")


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
    info = service.cache_info()
    body: Dict[str, Any] = {
        "status": "ok",
        "backend": service.backend_name,
        "live_version": service.live_version,
        "placement_version": getattr(service.backend, "placement_version", 0),
        "draining": app.admission.draining,
        "cache": {
            "hits": info.hits,
            "misses": info.misses,
            "size": info.size,
            "max_size": info.max_size,
            "hit_rate": round(info.hit_rate, 4),
        },
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
    info = service.cache_info()
    return RouteResponse(
        200,
        {
            "service": service.stats().as_dict(),
            "cache": {
                "hits": info.hits,
                "misses": info.misses,
                "size": info.size,
                "max_size": info.max_size,
                "hit_rate": round(info.hit_rate, 4),
            },
            "backend": service.backend_name,
            "live_version": service.live_version,
            "routing": service.route_report(),
            "admission": app.admission.snapshot(),
            "ratelimit": app.ratelimiter.snapshot(),
            "gateway": app.request_counters(),
        },
    )
