"""Asyncio TCP worker: one :class:`~repro.service.QueryService` behind a socket.

``stgq worker --listen HOST:PORT`` builds a dataset-backed service and runs
:func:`run_worker`; a gateway's :class:`~repro.service.net.RemoteBackend`
connects, handshakes and streams ``batch`` frames at it (see
:mod:`repro.service.net.protocol` for the wire format).

Batch frames are answered through
:meth:`~repro.service.QueryService.answer_async`, the request pipeline every
front door shares: one full-fidelity result or ``{"error": ...}`` entry per
request, *plus* the stats *delta* that batch produced.  A rejected request or
an ``ErrorResult`` from the worker's own backend fails its entry alone.
Each batch runs under its own
:class:`~repro.service.context.ExecutionContext`, so the delta is exact by
construction — no lock, no before/after snapshot of the service totals —
and the worker interleaves batch frames from any number of gateway
connections: while one connection's batch solves on the service's executor,
the event loop keeps reading other connections, solving *their* batches,
and answering control frames.  A batch frame may set ``"stats": true`` to
additionally receive the batch's merged kernel statistics
(``SearchStats``), straight from the solvers that recorded them.

Live-graph replication (``docs/live_graph.md``) rides on the same
connection: ``delta`` frames apply versioned mutation batches — idempotent
via the version handshake in :meth:`QueryService.apply_delta` — and
``snapshot`` frames are the catch-up fallback, inline or as a ``.stgq``
file reference.

Load-aware placement (``docs/placement.md``) rides alongside it with the
same idempotence pattern: ``placement_update`` frames store a versioned
:class:`~repro.service.placement.PlacementMap` on the worker (``noop`` when
it already holds that version or newer), ``placement_get`` hands it back,
and ``hello`` / every ``batch_result`` advertise the stored version so a
gateway routing with an older map notices and catches up without a restart.
The worker itself routes nothing by the stored map — it solves whatever a
gateway sends it (every worker holds the full graph) — it is a durable,
versioned distribution point for the fleet's routing decision.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import sys
import threading
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, TextIO, Tuple

from ...exceptions import ProtocolError, QueryError, ReproError
from ...graph.mutations import MutationBatch
from ..codec import ErrorResult, encode_result, wants_stats
from ..context import ExecutionContext
from ..placement import PlacementMap
from .protocol import PROTOCOL_VERSION, read_frame, write_frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..query_service import QueryService

__all__ = ["WorkerServer", "run_spawned_worker", "run_worker", "READY_MARKER"]

#: First token of the line a worker prints once it is accepting connections;
#: the cluster launcher parses ``READY_MARKER <host> <port>`` from stdout.
READY_MARKER = "STGQ-WORKER-READY"


class WorkerServer:
    """Serve one local :class:`QueryService` over the framed TCP protocol.

    The server binds lazily in :meth:`start` (``port=0`` picks an ephemeral
    port; the bound address is available afterwards via ``host``/``port``).
    It does not own the service's lifecycle — callers close both, typically
    via :func:`run_worker`.
    """

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        placement: Optional[PlacementMap] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        # Stored placement map: the worker is the fleet's durable
        # distribution point for the routing decision (docs/placement.md).
        # Kept in wire form so placement_get replies are a straight echo;
        # the version is what hello/batch_result advertise (0 = none).
        self._placement_wire: Optional[Dict[str, Any]] = (
            placement.as_wire() if placement is not None else None
        )
        self._placement_version: int = placement.version if placement is not None else 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        # In-flight frame accounting for the SIGTERM drain: a frame counts
        # from the moment it is fully read until its reply is written, and
        # aclose() waits for the count to hit zero before closing sockets.
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False

    @property
    def address(self) -> str:
        """The ``host:port`` string clients connect to (valid after start)."""
        return f"{self.host}:{self.port}"

    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._server = await asyncio.start_server(self._handle_client, self.host, self.port)
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled or :meth:`aclose`."""
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self, drain_timeout: float = 30.0) -> None:
        """Stop accepting, drain in-flight frames, close connections.

        The drained-shutdown contract (shared with ``stgq serve --jsonl``
        and the HTTP gateway, see :mod:`repro.service.drain`): every frame
        that was fully read gets its reply written before the connection
        is torn down — a mid-batch SIGTERM no longer drops responses whose
        requests the worker already accepted.  ``drain_timeout`` bounds
        the wait; a batch still running when it expires is abandoned with
        the close (the orchestrator's SIGKILL escalation territory).
        Idempotent.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self._draining = True
        if self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - pathological batch
                print(
                    f"worker drain timed out with {self._inflight} frames in flight",
                    file=sys.stderr,
                )
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break  # client hung up
                except ProtocolError as exc:
                    # Framing is broken: answer once, then drop the peer —
                    # the byte stream can no longer be trusted.
                    await write_frame(writer, {"type": "error", "error": str(exc)})
                    break
                # From here the frame is "accepted": count it in-flight
                # (synchronously — no await between the read completing and
                # this increment, so aclose() can never observe the gap) so
                # a drain waits for its reply to be written.
                self._inflight += 1
                self._idle.clear()
                try:
                    reply, keep_open = await self._dispatch(frame)
                    await write_frame(writer, reply)
                finally:
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                if not keep_open or self._draining:
                    break
        except (ConnectionError, ProtocolError):  # peer died mid-write
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _dispatch(self, frame: Dict[str, Any]) -> Tuple[Dict[str, Any], bool]:
        """Answer one frame; returns (reply, keep_connection_open)."""
        ftype = frame.get("type")
        if ftype == "hello":
            version = frame.get("v")
            if version != PROTOCOL_VERSION:
                reply = {
                    "type": "error",
                    "error": (
                        f"unsupported protocol version {version!r} "
                        f"(this worker speaks v{PROTOCOL_VERSION})"
                    ),
                }
                return reply, False
            reply = {
                "type": "hello",
                "v": PROTOCOL_VERSION,
                "server": "stgq-worker",
                "backend": self.service.backend_name,
                "workers": self.service.max_workers,
                "graph_size": self.service.graph.vertex_count,
            }
            # Substrate-backed workers advertise which ``.stgq`` file (and
            # which version of it) they serve from, so a gateway can detect
            # a fleet whose shards disagree about the graph.
            graph_path = getattr(self.service.graph, "path", None)
            if graph_path is not None:
                reply["graph_path"] = graph_path
                reply["graph_version"] = self.service.graph.version
            # Position in the mutation stream, so a gateway (or ``stgq
            # mutate``) can see on connect whether this worker needs a
            # catch-up before the fleet serves one consistent version.
            reply["live_version"] = self.service.live_version
            # Stored placement-map version (0 = none): lets a connecting
            # gateway see immediately whether a load-aware map is deployed
            # and whether its own copy is stale.
            reply["placement_version"] = self._placement_version
            return reply, True
        if ftype == "ping":
            return {"type": "pong", "id": frame.get("id")}, True
        if ftype == "cache_clear":
            # Gateway-initiated invalidation (QueryService.clear_cache on a
            # remote backend): drop every cached ego network, including any
            # held by this worker's own executor backend.  Runs off-loop —
            # a process-backend clear stops its children, and the event
            # loop must keep serving other connections' frames meanwhile.
            # A failed clear is answered in-band so the gateway can report
            # the incomplete invalidation.
            #
            # When the gateway's graph is substrate-backed, the frame also
            # carries ``graph_path``/``graph_version``: the worker re-opens
            # that ``.stgq`` file (mmap'd, version-checked) before clearing,
            # making the clear a true "the graph changed" invalidation.
            loop = asyncio.get_running_loop()
            graph_path = frame.get("graph_path")
            graph_version = frame.get("graph_version")
            try:
                if graph_path is not None:
                    self.service.graph = await loop.run_in_executor(
                        None, self._open_substrate, graph_path, graph_version
                    )
                await loop.run_in_executor(None, self.service.clear_cache)
            except Exception as exc:
                reply = {
                    "type": "error",
                    "error": f"cache clear failed: {exc}",
                    "id": frame.get("id"),
                }
                return reply, True
            return {"type": "cache_cleared", "id": frame.get("id")}, True
        if ftype == "delta":
            # Live-graph replication (docs/live_graph.md): one versioned
            # mutation batch.  apply_delta's version handshake makes the
            # frame idempotent (a retried delta is a "noop") and turns any
            # out-of-order delivery into an explicit "gap" the gateway
            # answers with a log replay or a snapshot.  Runs off-loop: the
            # service takes its mutation lock and may forward the delta to
            # its own process-backend children, and other connections'
            # batches must keep flowing meanwhile.
            loop = asyncio.get_running_loop()
            try:
                batch = MutationBatch.from_wire(frame.get("batch"))
                status, invalidated = await loop.run_in_executor(
                    None, self.service.apply_delta, batch
                )
            except (ProtocolError, ReproError) as exc:
                reply = {
                    "type": "error",
                    "error": f"delta failed: {exc}",
                    "id": frame.get("id"),
                }
                return reply, True
            reply = {
                "type": "delta_result",
                "id": frame.get("id"),
                "status": status,
                "invalidated": invalidated,
                "version": self.service.live_version,
            }
            return reply, True
        if ftype == "snapshot":
            # Catch-up fallback when deltas cannot bridge the version gap.
            # Two forms: inline (payload carries vertices/edges) and
            # reference (``graph_path``/``graph_version`` name a ``.stgq``
            # substrate this worker re-opens — the PR 6 reload path — with
            # the payload carrying only version/availability).
            loop = asyncio.get_running_loop()
            payload = frame.get("payload")
            if not isinstance(payload, dict):
                reply = {
                    "type": "error",
                    "error": "snapshot frame must carry a 'payload' object",
                    "id": frame.get("id"),
                }
                return reply, True
            graph_path = frame.get("graph_path")
            try:
                dropped = await loop.run_in_executor(
                    None, self._apply_snapshot, payload, graph_path, frame.get("graph_version")
                )
            except (ProtocolError, ReproError) as exc:
                reply = {
                    "type": "error",
                    "error": f"snapshot failed: {exc}",
                    "id": frame.get("id"),
                }
                return reply, True
            reply = {
                "type": "snapshot_applied",
                "id": frame.get("id"),
                "version": self.service.live_version,
                "invalidated": dropped,
            }
            return reply, True
        if ftype == "placement_update":
            # Load-aware routing distribution (docs/placement.md): store the
            # versioned map with the same idempotence rule as ``delta`` —
            # strictly newer versions apply, anything else is a "noop" — so
            # retries and out-of-order pushes from multiple gateways are
            # harmless.  Junk maps are rejected in-band with the connection
            # kept open (PlacementMap.from_wire validates every field).
            try:
                placement = PlacementMap.from_wire(frame.get("map"))
            except (QueryError, ReproError) as exc:
                reply = {
                    "type": "error",
                    "error": f"placement rejected: {exc}",
                    "id": frame.get("id"),
                }
                return reply, True
            if placement.version > self._placement_version:
                self._placement_wire = placement.as_wire()
                self._placement_version = placement.version
                status = "applied"
            else:
                status = "noop"
            reply = {
                "type": "placement_applied",
                "id": frame.get("id"),
                "status": status,
                "version": self._placement_version,
            }
            return reply, True
        if ftype == "placement_get":
            reply = {
                "type": "placement",
                "id": frame.get("id"),
                "version": self._placement_version,
                "map": self._placement_wire,
            }
            return reply, True
        if ftype == "stats":
            reply = {
                "type": "stats",
                "stats": self.service.stats().as_dict(),
                "cache": self.service.cache_info().as_dict(),
                "placement_version": self._placement_version,
            }
            # When this worker's own service routes by shard (a process
            # backend), its rolling routing metrics ride along too.
            routing = self.service.route_report()
            if routing is not None:
                reply["routing"] = routing
            return reply, True
        if ftype == "batch":
            return await self._handle_batch(frame), True
        reply = {"type": "error", "error": f"unknown frame type {ftype!r}", "id": frame.get("id")}
        return reply, True

    @staticmethod
    def _open_substrate(path: Any, version: Any):
        """Open the ``.stgq`` substrate a frame names, memory-mapped (blocking).

        The version check catches a file that changed (or differs across
        nodes) underneath the fleet.  Both frames that name a substrate
        (``cache_clear`` and ``snapshot``) open it here, on the executor.
        """
        from ...graph.csr import load_stgq

        graph = load_stgq(str(path), mmap=True)
        if version is not None and graph.version != version:
            raise ProtocolError(
                f"substrate {path} has version {graph.version}, gateway expects {version}"
            )
        return graph

    def _apply_snapshot(self, payload: Dict[str, Any], graph_path: Any, graph_version: Any) -> int:
        """Apply a snapshot frame's state swap (blocking; runs on the executor).

        The reference form hands the re-opened substrate to
        :meth:`QueryService.apply_snapshot` in place of inline topology, so
        a full catch-up ships a file reference instead of the graph.
        """
        graph = None
        if graph_path is not None:
            graph = self._open_substrate(graph_path, graph_version)
        return self.service.apply_snapshot(payload, graph=graph)

    async def _handle_batch(self, frame: Dict[str, Any]) -> Dict[str, Any]:
        requests = frame.get("requests")
        if not isinstance(requests, list):
            return {
                "type": "error",
                "error": "batch frame must carry a 'requests' array",
                "id": frame.get("id"),
            }
        # Each batch gets a private ExecutionContext, so its stats delta is
        # exact whatever else the worker is doing: batches from any number
        # of gateway connections interleave freely on the service's
        # executor.
        context = ExecutionContext()
        outcomes = await self.service.answer_async(requests, context)
        # A batch that answered no request ships an empty delta and no
        # stats: nothing was solved, or the solve failed and merged nothing
        # worker-side, so the gateway, whose callers only see ErrorResults,
        # must count nothing either.
        answered = any(not isinstance(outcome, ErrorResult) for outcome in outcomes)
        reply = {
            "type": "batch_result",
            "id": frame.get("id"),
            "results": [encode_result(outcome) for outcome in outcomes],
            "stats_delta": context.as_delta() if answered else {},
            "cache_size": self.service.cache_info().size,
            # Every batch reply advertises the stored placement-map version,
            # so a gateway routing with an older map learns about a newer
            # deployment mid-stream and fetches it (placement_get) without
            # anyone restarting.
            "placement_version": self._placement_version,
        }
        if wants_stats(frame) and answered:
            # Opt-in observability: the batch's merged kernel statistics,
            # recorded into the context by the solvers themselves.
            reply["stats"] = context.search_stats().as_dict()
        return reply


def run_worker(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 0,
    announce: Optional[TextIO] = None,
    placement: Optional[PlacementMap] = None,
) -> int:
    """Run a worker server until SIGINT/SIGTERM; returns an exit code.

    Once listening, writes ``STGQ-WORKER-READY <host> <port>`` to
    ``announce`` (the cluster launcher reads this off the subprocess's
    stdout to learn the ephemeral port).  Signals stop the loop cleanly
    *and drained*: ``aclose`` finishes every in-flight frame's reply
    before connections close (a mid-batch SIGTERM drops nothing), then
    the caller closes the service (``stgq worker`` holds it in a ``with``
    block), so no forkserver workers leak on Ctrl-C.  Exit code stays 0
    on a signalled, drained shutdown — the contract launchers assert.
    """

    async def _run() -> None:
        server = WorkerServer(service, host, port, placement=placement)
        await server.start()
        if announce is not None:
            announce.write(f"{READY_MARKER} {server.host} {server.port}\n")
            announce.flush()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - Windows
                pass
        try:
            await stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal handler not installable
        print("worker interrupted; shutting down", file=sys.stderr)
        return 130
    return 0


def run_spawned_worker() -> int:
    """Entry point of a :class:`~repro.service.ProcessBackend` child.

    Unpickles ``(graph, calendars, parameters, cache_size, live_version)``
    from stdin, serves it as a serial :class:`QueryService` pinned at that
    live version, and announces its ephemeral 127.0.0.1 port on stdout
    like ``stgq worker`` (see
    :func:`~repro.service.net.cluster.start_service_workers`).  Stdin stays
    open after the state: end-of-file means the parent closed it or died,
    and the child then stops itself with the same drained SIGTERM path, so
    it never outlives the backend that spawned it.
    """
    from ..query_service import QueryService

    stdin = sys.stdin.buffer
    graph, calendars, parameters, cache_size, live_version = pickle.load(stdin)
    service = QueryService(
        graph, calendars, parameters=parameters, cache_size=cache_size, backend="serial"
    )
    service._live_version = live_version

    def _stop_at_eof() -> None:
        # Raw reads: a daemon thread parked inside the buffered reader
        # would hold its lock through interpreter shutdown.
        while os.read(stdin.fileno(), 4096):
            pass
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=_stop_at_eof, name="stgq-parent-watch", daemon=True).start()
    with service:
        return run_worker(service, announce=sys.stdout)
