"""HTTP gateway tier: the product front door over the query service.

The ROADMAP's topology in one line::

    clients → [HTTP gateways × G] → RemoteBackend/TCP → [stgq workers × W]

This package is the left tier: stateless HTTP/JSON gateways (stdlib
``ThreadingHTTPServer`` — no new runtime dependencies) that validate,
rate-limit, admission-control and paginate, then answer through the same
:class:`~repro.service.query_service.QueryService` every other surface
uses.  Results are encoded by :func:`repro.service.codec.response_for`,
so an HTTP answer is byte-identical to the serial service's.

Module map (the routes/app split):

* :mod:`.routes` — pure handlers (request in, ``RouteResponse`` out).
* :mod:`.app` — the pipeline + transport: ``GatewayApp``, ``HTTPGateway``,
  ``run_gateway`` (the ``stgq http`` entry), the READY announcement.
* :mod:`.admission` — bounded concurrency + bounded queue, 429 shedding.
* :mod:`.ratelimit` — per-API-key token buckets.
* :mod:`.pagination` — stateless cursors over batch results.
* :mod:`.accesslog` — structured JSONL access log.
* :mod:`.cluster` — local N-gateway launcher for benches and CI (the
  workers' spawn path with an HTTP readiness marker and health probe).

``docs/http.md`` is the operator-facing tour (routes, wire examples,
admission knobs, multi-gateway deployment).
"""

from .accesslog import AccessLog
from .admission import AdmissionController
from .app import GatewayApp, GatewayConfig, HTTPGateway, READY_MARKER, run_gateway
from .cluster import start_local_gateways
from .pagination import DEFAULT_PAGE_SIZE, MAX_PAGE_SIZE, decode_cursor, encode_cursor, paginate
from .ratelimit import RateLimiter, parse_rate_spec
from .routes import RouteResponse

__all__ = [
    "AccessLog",
    "AdmissionController",
    "DEFAULT_PAGE_SIZE",
    "GatewayApp",
    "GatewayConfig",
    "HTTPGateway",
    "MAX_PAGE_SIZE",
    "RateLimiter",
    "READY_MARKER",
    "RouteResponse",
    "decode_cursor",
    "encode_cursor",
    "paginate",
    "parse_rate_spec",
    "run_gateway",
    "start_local_gateways",
]
