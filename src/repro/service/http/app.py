"""HTTP transport: ThreadingHTTPServer wiring around the route handlers.

Layering (the routes/app split the subsystem is built on):

* :mod:`.routes` — pure handlers: parsed request in, ``RouteResponse`` out.
* :class:`GatewayApp` (here) — the request *pipeline*: route dispatch, body
  bounds, token-bucket rate limiting, admission control, outcome
  classification, counters and the JSONL access log.  Still socket-free —
  tests call :meth:`GatewayApp.handle` directly.
* :class:`HTTPGateway` (here) — the socket tier: a stdlib
  ``ThreadingHTTPServer`` (one thread per connection, daemon threads)
  translating HTTP to ``GatewayApp.handle`` calls.  No third-party web
  framework: the gateway must run wherever the solver runs.
* :func:`run_gateway` — the blocking ``stgq http`` entry point: announce
  ``STGQ-HTTP-READY host port`` on stdout (the same contract the TCP
  worker's READY line follows, so launchers learn ephemeral ports), then
  serve until SIGTERM/SIGINT and **drain**: stop admitting, finish every
  in-flight request, then exit 0.

Gateways are stateless by design — all graph/cache state lives in the
``QueryService`` (and, with ``--backend remote``, in the worker fleet
behind it) — so any number of ``HTTPGateway`` replicas can front one fleet
behind a dumb load balancer.  ``docs/http.md`` shows the topology.
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Mapping, Optional, Tuple, Type

from ..codec import MAX_REQUEST_BYTES
from ..drain import ShutdownSignal, wait_for_drain
from .accesslog import AccessLog
from .admission import AdmissionController
from .ratelimit import RateLimiter
from .routes import (
    RouteResponse,
    error_response,
    handle_health,
    handle_queries,
    handle_stats,
)

__all__ = [
    "GatewayApp",
    "GatewayConfig",
    "HTTPGateway",
    "READY_MARKER",
    "build_handler",
    "run_gateway",
]

#: Stdout announcement (``STGQ-HTTP-READY host port``) once the gateway is
#: accepting; launchers parse it to learn ephemeral ports, mirroring the
#: TCP worker's ``STGQ-WORKER-READY`` contract.
READY_MARKER = "STGQ-HTTP-READY"

#: API-key request header the rate limiter buckets on.
API_KEY_HEADER = "X-API-Key"


class GatewayConfig:
    """Admission, rate-limit and body-size knobs for one gateway.

    Defaults suit a laptop-scale gateway; ``stgq http`` exposes each knob.
    ``rate`` of ``None`` disables per-client rate limiting (admission
    control still bounds the aggregate).
    """

    def __init__(
        self,
        max_concurrency: int = 8,
        max_queue: int = 16,
        retry_after: float = 1.0,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        max_body_bytes: int = MAX_REQUEST_BYTES,
        admit_timeout: Optional[float] = 10.0,
        drain_timeout: float = 30.0,
    ) -> None:
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.retry_after = retry_after
        self.rate = rate
        self.burst = burst
        self.max_body_bytes = max_body_bytes
        #: How long a queued request waits for a solve slot before it is
        #: shed anyway (bounds worst-case latency under sustained overload).
        self.admit_timeout = admit_timeout
        #: How long the SIGTERM drain waits for in-flight requests.
        self.drain_timeout = drain_timeout


def _header(headers: Mapping[str, str], name: str) -> Optional[str]:
    """Case-insensitive header lookup over a plain mapping."""
    lowered = name.lower()
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


def _retry_after_header(seconds: float) -> str:
    """``Retry-After`` is integral seconds; always advise at least 1."""
    return str(max(1, math.ceil(seconds)))


class GatewayApp:
    """The request pipeline: everything between the socket and the routes."""

    def __init__(
        self,
        service: Any,
        config: Optional[GatewayConfig] = None,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.service = service
        self.config = config or GatewayConfig()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue=self.config.max_queue,
            retry_after=self.config.retry_after,
        )
        self.ratelimiter = RateLimiter(self.config.rate, self.config.burst)
        self.access_log = access_log if access_log is not None else AccessLog(stream=None)
        self._lock = threading.Lock()
        self._active = 0
        self._requests = 0
        self._by_status: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def handle(
        self,
        method: str,
        path: str,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
        client: str = "",
    ) -> RouteResponse:
        """Serve one request end to end (dispatch, shed, log, count)."""
        headers = headers or {}
        api_key = _header(headers, API_KEY_HEADER)
        started = time.perf_counter()
        with self._lock:
            self._active += 1
        try:
            try:
                response, outcome, extra = self._dispatch(method, path, headers, body, client)
            except Exception as exc:  # noqa: BLE001 - the pipeline must answer
                response = error_response(500, f"internal error: {type(exc).__name__}: {exc}")
                outcome, extra = "error", {}
        finally:
            with self._lock:
                self._active -= 1
        latency_ms = (time.perf_counter() - started) * 1000.0
        with self._lock:
            self._requests += 1
            bucket = f"{response.status // 100}xx"
            self._by_status[bucket] = self._by_status.get(bucket, 0) + 1
        self.access_log.record(
            method,
            path,
            response.status,
            latency_ms,
            outcome,
            client=client,
            api_key=api_key,
            **extra,
        )
        return response

    def _dispatch(
        self,
        method: str,
        path: str,
        headers: Mapping[str, str],
        body: bytes,
        client: str,
    ) -> Tuple[RouteResponse, str, Dict[str, Any]]:
        route = path.split("?", 1)[0].rstrip("/") or "/"
        if route == "/health":
            if method != "GET":
                return error_response(405, "method not allowed", Allow="GET"), "client_error", {}
            return handle_health(self), "ok", {}
        if route == "/stats":
            if method != "GET":
                return error_response(405, "method not allowed", Allow="GET"), "client_error", {}
            return handle_stats(self), "ok", {}
        if route != "/v1/queries":
            return error_response(404, f"no such route: {route}"), "client_error", {}
        if method != "POST":
            return error_response(405, "method not allowed", Allow="POST"), "client_error", {}
        return self._dispatch_queries(headers, body, client)

    def _dispatch_queries(
        self, headers: Mapping[str, str], body: bytes, client: str
    ) -> Tuple[RouteResponse, str, Dict[str, Any]]:
        if len(body) > self.config.max_body_bytes:
            return (
                error_response(
                    413,
                    f"request body of {len(body)} bytes exceeds the "
                    f"{self.config.max_body_bytes}-byte limit",
                ),
                "client_error",
                {"bytes": len(body)},
            )
        key = _header(headers, API_KEY_HEADER) or client or "anonymous"
        allowed, retry_after = self.ratelimiter.allow(key)
        if not allowed:
            response = error_response(
                429,
                "rate limit exceeded for this API key",
                **{"Retry-After": _retry_after_header(retry_after)},
            )
            response.body["retry_after"] = math.ceil(retry_after)
            return response, "ratelimited", {}
        ticket = self.admission.try_admit(timeout=self.config.admit_timeout)
        if ticket is None:
            if self.admission.draining:
                response = error_response(
                    503,
                    "gateway is draining for shutdown",
                    **{"Retry-After": _retry_after_header(self.admission.retry_after)},
                )
                return response, "draining", {}
            response = error_response(
                429,
                "server over capacity, request shed",
                **{"Retry-After": _retry_after_header(self.admission.retry_after)},
            )
            response.body["retry_after"] = math.ceil(self.admission.retry_after)
            return response, "shed", {}
        with ticket:
            response = handle_queries(self, body)
        outcome = "ok" if response.status < 400 else "client_error"
        extra: Dict[str, Any] = {"queued": ticket.queued}
        if response.status == 200:
            extra["queries"] = (
                response.body["total"] if "results" in response.body else 1
            )
        return response, outcome, extra

    # ------------------------------------------------------------------
    # drain + observability
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse new query admissions (health keeps answering, as 503)."""
        self.admission.begin_drain()

    def in_flight(self) -> int:
        """Requests currently inside :meth:`handle` (drain polls to zero)."""
        with self._lock:
            return self._active

    def request_counters(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "requests": self._requests,
                "active": self._active,
                "by_status": dict(self._by_status),
                "access_log_lines": self.access_log.lines,
            }


def build_handler(app: GatewayApp) -> Type[BaseHTTPRequestHandler]:
    """Request-handler class bound to one :class:`GatewayApp`."""

    class GatewayHandler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "stgq-http/1"
        # A half-open client must not park a handler thread forever.
        timeout = 60.0

        def log_message(self, format: str, *args: Any) -> None:
            pass  # the structured access log replaces stderr chatter

        def do_GET(self) -> None:  # noqa: N802 - http.server naming
            self._serve(b"")

        def do_POST(self) -> None:  # noqa: N802 - http.server naming
            declared = self.headers.get("Content-Length")
            try:
                length = int(declared) if declared is not None else 0
            except ValueError:
                self._write(error_response(400, "invalid Content-Length header"), close=True)
                return
            if length > app.config.max_body_bytes:
                # Refuse without reading: draining an oversized body would be
                # the resource spend the limit exists to prevent.  The unread
                # body poisons the connection, so close it.
                response = error_response(
                    413,
                    f"declared body of {length} bytes exceeds the "
                    f"{app.config.max_body_bytes}-byte limit",
                )
                app.access_log.record(
                    self.command,
                    self.path,
                    413,
                    0.0,
                    "client_error",
                    client=self.client_address[0],
                    bytes=length,
                )
                self._write(response, close=True)
                return
            self._serve(self.rfile.read(length))

        def _serve(self, body: bytes) -> None:
            response = app.handle(
                self.command,
                self.path,
                dict(self.headers.items()),
                body,
                client=self.client_address[0],
            )
            self._write(response)

        def _write(self, response: RouteResponse, close: bool = False) -> None:
            payload = json.dumps(response.body, separators=(",", ":")).encode("utf-8")
            try:
                self.send_response(response.status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                for name, value in response.headers.items():
                    self.send_header(name, value)
                if close:
                    self.send_header("Connection", "close")
                    self.close_connection = True
                self.end_headers()
                self.wfile.write(payload)
            except (BrokenPipeError, ConnectionResetError):
                self.close_connection = True  # client went away mid-response

    return GatewayHandler


class HTTPGateway:
    """One listening gateway: ThreadingHTTPServer + GatewayApp + drain."""

    def __init__(
        self,
        service: Any,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[GatewayConfig] = None,
        access_log: Optional[AccessLog] = None,
    ) -> None:
        self.app = GatewayApp(service, config=config, access_log=access_log)
        self._server = ThreadingHTTPServer((host, port), build_handler(self.app))
        self.host, self.port = self._server.server_address[:2]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "HTTPGateway":
        """Serve in a background thread (the caller's thread stays free).

        The accept loop keeps socketserver's half-second poll, so an idle
        gateway wakes twice a second; :meth:`drain_and_stop` wakes it at
        once by shutting the listener down.
        """
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"stgq-http-{self.port}",
            daemon=True,
        )
        self._thread.start()
        return self

    def drain_and_stop(self, timeout: Optional[float] = None) -> bool:
        """Graceful stop: refuse new work, finish in-flight, then close.

        Returns True when every in-flight request completed within the
        drain timeout — the zero-dropped-requests guarantee the SIGTERM
        contract promises.  False means the timeout expired with work
        still running (logged by the caller; the exit code stays 0, the
        orchestrator's escalation to SIGKILL is the backstop).
        """
        self.app.begin_drain()
        drained = wait_for_drain(
            self.app.in_flight,
            timeout=timeout if timeout is not None else self.app.config.drain_timeout,
        )
        # Shutting the listener down wakes the accept loop at once instead
        # of at its next poll (Linux; elsewhere the poll still ends it).
        with contextlib.suppress(OSError):
            self._server.socket.shutdown(socket.SHUT_RDWR)
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return drained

    def __enter__(self) -> "HTTPGateway":
        return self.start()

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.drain_and_stop()


def run_gateway(
    service: Any,
    host: str = "127.0.0.1",
    port: int = 8080,
    config: Optional[GatewayConfig] = None,
    access_log: Optional[AccessLog] = None,
    announce: bool = False,
    stop: Optional[ShutdownSignal] = None,
) -> int:
    """Blocking ``stgq http`` entry: serve until SIGTERM/SIGINT, then drain.

    Installs the shared :class:`~repro.service.drain.ShutdownSignal` (unless
    the caller passes one, e.g. tests driving ``trigger()``), so TERM/INT
    stop admission, let in-flight requests finish, and exit 0 — the same
    drained-shutdown contract as ``stgq worker`` and ``stgq serve``.
    """
    gateway = HTTPGateway(service, host=host, port=port, config=config, access_log=access_log)
    own_signal = stop is None
    shutdown = stop if stop is not None else ShutdownSignal().install()
    try:
        gateway.start()
        if announce:
            print(READY_MARKER, gateway.host, gateway.port, flush=True)
        shutdown.wait()
        drained = gateway.drain_and_stop()
        if not drained:
            print(
                f"stgq http: drain timed out with {gateway.app.in_flight()} "
                "requests still in flight",
                flush=True,
            )
    finally:
        if own_signal:
            shutdown.uninstall()
        service.close()
    return shutdown.exit_code()
