"""RemoteBackend: the executor backend that runs batches on socket workers.

Drop-in implementation of the :class:`~repro.service.ExecutorBackend`
protocol — a :class:`~repro.service.QueryService` built with
``backend=RemoteBackend("host:a,host:b")`` shards its batches across the
``stgq worker`` processes at those addresses.  It is also the one sharded
dispatch path of the ``process`` backend:
:class:`~repro.service.ProcessBackend` is a ``RemoteBackend`` whose workers
are children it spawns on 127.0.0.1 itself.

* **Routing** — each query's initiator maps to a worker through a router
  duck type: the CRC32 :class:`~repro.service.ShardMap` fallback by
  default, or a versioned :class:`~repro.service.placement.PlacementMap`
  for load-aware deployments — so a worker's ego-network cache stays hot
  for its share of users and a gateway restart lands every initiator on
  the same worker again.  A replicated hot ego fans out round-robin across
  its replica workers, and when its routed worker is down the sub-batch
  **fails over** to a surviving replica instead of degrading to errors.  Gateways also
  *adopt* newer maps mid-flight: every ``batch_result`` advertises the
  worker's stored placement version, and a gateway seeing a newer one
  fetches the map with a ``placement_get`` frame — so ``placement_update``
  pushed at any one point reaches the whole tier without restarts.
* **Pipelining** — one persistent connection per worker, fed by its own
  FIFO queue; a batch is split into per-shard sub-batches that are
  dispatched concurrently, so every worker solves its slice while the
  others solve theirs, and a stalled worker backs up only its own shard.
* **Stats invariance** — each ``batch_result`` carries the stats *delta*
  the sub-batch's :class:`~repro.service.context.ExecutionContext` produced
  inside the worker; deltas are merged into the gateway batch's own context
  only after every shard resolved (all-or-nothing per shard), so
  ``stats()``/``cache_info()`` report the same numbers whichever backend
  answered.
* **Failure containment** — a dead or timed-out worker degrades to
  :class:`~repro.service.codec.ErrorResult` entries for the requests routed
  to it; the rest of the batch succeeds.  Reconnection uses exponential
  backoff with a fail-fast window, so a flapping worker cannot stall every
  batch, and a restarted worker is picked up automatically on the next
  attempt after the window expires.
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ...exceptions import ProtocolError, QueryError, WorkerUnavailableError
from ..codec import ErrorResult, decode_result, request_for
from ..context import ExecutionContext
from ..placement import PlacementMap
from ..sharding import ShardMap
from .protocol import client_handshake, encode_frame, recv_frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query_service import Query, QueryService, Result

__all__ = ["RemoteBackend", "parse_addresses"]

Address = Tuple[str, int]

#: TCP connect timeout of a worker link, in seconds.
CONNECT_TIMEOUT = 5.0
#: Reconnect backoff: after ``n`` consecutive failures a link fails fast for
#: ``min(BACKOFF_CAP, BACKOFF_BASE * 2**(n-1))`` seconds.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0
#: Absolute cap on one sub-batch round trip, whatever its size: a wedged
#: worker must not hold a huge batch hostage for ``timeout * N`` seconds.
MAX_BATCH_TIMEOUT = 300.0


def parse_addresses(connect: Union[str, Iterable[Union[str, Address]]]) -> List[Address]:
    """Normalise a ``--connect`` spec to a list of ``(host, port)`` pairs.

    Accepts ``"host:port,host:port"`` strings (what the CLI passes) or any
    iterable of ``"host:port"`` strings / ready pairs.
    """
    if isinstance(connect, str):
        parts: List[Union[str, Address]] = [p for p in connect.split(",") if p.strip()]
    else:
        parts = list(connect)
    if not parts:
        raise QueryError("remote backend needs at least one worker address")
    addresses: List[Address] = []
    for part in parts:
        if isinstance(part, tuple):
            host, port = part
        else:
            host, _, port_text = part.strip().rpartition(":")
            if not host:
                raise QueryError(f"worker address {part!r} is not 'host:port'")
            try:
                port = int(port_text)
            except ValueError:
                raise QueryError(f"worker address {part!r} has a non-numeric port") from None
        if not 0 < int(port) < 65536:
            raise QueryError(f"worker address has out-of-range port {port}")
        addresses.append((str(host), int(port)))
    return addresses


class _WorkerLink:
    """One persistent, lazily-(re)connected framed connection to a worker.

    A lock serialises request/response pairs on the connection.  The
    backend's fan-out goes through :meth:`submit`, one FIFO queue per link,
    so concurrent batches to *different* workers proceed in parallel and a
    stalled worker never holds up another shard's requests.  Connection
    failures open a fail-fast window that grows exponentially
    (``BACKOFF_BASE * 2**failures``, capped), so while a worker is down its
    shard's requests error out immediately instead of each paying a connect
    timeout.  ``timeout`` is :class:`RemoteBackend`'s; the connect, backoff
    and batch-cap knobs are this module's constants.
    """

    def __init__(self, shard: int, address: Address, timeout: float) -> None:
        self.shard = shard
        self.address = address
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()
        self._failures = 0
        self._retry_at = 0.0
        self._queue: Optional[ThreadPoolExecutor] = None
        self._queue_lock = threading.Lock()

    @property
    def label(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _register_failure(self) -> None:
        self._failures += 1
        delay = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** (self._failures - 1)))
        self._retry_at = time.monotonic() + delay

    def _drop_locked(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass

    def _connect_locked(self) -> None:
        remaining = self._retry_at - time.monotonic()
        if remaining > 0:
            raise WorkerUnavailableError(
                f"worker {self.label} unavailable (reconnect backoff, {remaining:.2f}s left)"
            )
        try:
            sock = socket.create_connection(self.address, timeout=CONNECT_TIMEOUT)
        except OSError as exc:
            self._register_failure()
            raise WorkerUnavailableError(f"cannot connect to worker {self.label}: {exc}") from exc
        sock.settimeout(self.timeout)
        try:
            client_handshake(sock, deadline=time.monotonic() + self.timeout)
        except (OSError, ProtocolError) as exc:
            sock.close()
            self._register_failure()
            raise WorkerUnavailableError(
                f"handshake with worker {self.label} failed: {exc}"
            ) from exc
        self._sock = sock
        self._failures = 0
        self._retry_at = 0.0

    def request(self, frame: Dict, budget: int = 1) -> Dict:
        """One request/response round trip; raises ``WorkerUnavailableError``.

        Any transport failure (refused connect, send/recv error, timeout,
        broken framing) drops the connection — the next request attempts a
        reconnect once its backoff window has passed.  The round trip is
        bounded by a deadline of ``timeout * budget`` seconds (``budget`` =
        number of requests in the frame), so the per-request budget holds
        for any sub-batch size while a dribbling worker still cannot stall
        a batch past its deadline.  A frame too large to encode raises
        :class:`ProtocolError` *before* touching the connection: a
        client-side mistake must not penalise a healthy worker with a
        dropped socket and backoff.
        """
        data = encode_frame(frame)
        # Scale with the sub-batch so large healthy batches are never
        # spuriously degraded, but cap the total: a wedged worker must not
        # stall a batch for timeout * N seconds (hours at defaults).
        cap = max(self.timeout, MAX_BATCH_TIMEOUT)
        budget_seconds = min(self.timeout * max(1, budget), cap)
        with self._lock:
            if self._sock is None:
                self._connect_locked()
            deadline = time.monotonic() + budget_seconds
            try:
                self._sock.settimeout(self.timeout)
                self._sock.sendall(data)
                reply = recv_frame(self._sock, deadline=deadline)
            except socket.timeout as exc:
                self._drop_locked()
                self._register_failure()
                raise WorkerUnavailableError(
                    f"worker {self.label} timed out after {budget_seconds}s"
                ) from exc
            except (OSError, ProtocolError) as exc:
                self._drop_locked()
                self._register_failure()
                raise WorkerUnavailableError(f"worker {self.label} failed: {exc}") from exc
            if reply.get("type") == "error":
                # In-protocol refusal (e.g. malformed batch): connection is
                # healthy, but this request cannot be served.
                raise WorkerUnavailableError(
                    f"worker {self.label} rejected the request: {reply.get('error')}"
                )
            return reply

    def reset_backoff(self) -> None:
        """Forget the fail-fast window so the next request truly attempts.

        Batch traffic wants the backoff (bounded latency while a worker is
        down); must-attempt operations like a cache invalidation do not — a
        worker that already recovered must not be skipped just because its
        last failure was recent.  A failing attempt re-opens the window.
        """
        with self._lock:
            self._retry_at = 0.0

    def submit(self, fn: Callable[..., Any], *args: Any) -> Future:
        """Queue ``fn(self, *args)`` on this link's own FIFO thread."""
        with self._queue_lock:
            if self._queue is None:
                self._queue = ThreadPoolExecutor(
                    max_workers=1, thread_name_prefix=f"stgq-shard{self.shard}"
                )
            return self._queue.submit(fn, self, *args)

    def close(self) -> None:
        """Finish the queued requests, then drop the connection."""
        with self._queue_lock:
            queue, self._queue = self._queue, None
        if queue is not None:
            queue.shutdown(wait=True)
        with self._lock:
            self._drop_locked()


class RemoteBackend:
    """Shard initiators across remote workers over persistent connections.

    Parameters
    ----------
    connect:
        Worker addresses: ``"host:port,host:port"`` or an iterable of
        ``"host:port"`` strings / ``(host, port)`` pairs.  The number of
        addresses fixes the shard count; list the same workers in the same
        order on every gateway or the shard → worker mapping diverges.
    timeout:
        Per-request time budget in seconds: a sub-batch round trip to one
        worker is bounded by ``timeout * len(sub-batch)`` (control frames
        by ``timeout``), so large healthy batches are never spuriously
        degraded while a stalled worker is still cut off deterministically.
        On expiry the sub-batch yields error results and the connection is
        dropped (re-established on a later batch).  Default 30 s, for the
        process backend too.  The connect timeout, the reconnect backoff
        and the absolute cap on one sub-batch round trip are module
        constants (:data:`CONNECT_TIMEOUT`, :data:`BACKOFF_BASE`,
        :data:`BACKOFF_CAP`, :data:`MAX_BATCH_TIMEOUT`).
    placement:
        Optional :class:`~repro.service.placement.PlacementMap` replacing
        the CRC32 fallback; its ``n_shards`` must equal the address count.
        Gateways may also *adopt* a newer map advertised by the workers
        (see :meth:`update_placement`), so passing one here is the initial
        state, not a pin.

    Notes
    -----
    The workers must serve the *same* graph/calendars as the gateway
    service, or results will be inconsistent — the launcher and the docs
    make both sides load the same seeded dataset.  Vertex ids must survive
    a JSON round trip (ints or strings).
    """

    name = "remote"
    #: Per-request time budget in seconds unless ``timeout=`` overrides it.
    timeout = 30.0

    def __init__(
        self,
        connect: Union[str, Iterable[Union[str, Address]]],
        timeout: Optional[float] = None,
        placement: Optional[PlacementMap] = None,
    ) -> None:
        addresses = parse_addresses(connect)
        self._init_shards(len(addresses), timeout, placement)
        self._attach(addresses)

    def _init_shards(
        self, workers: int, timeout: Optional[float], placement: Optional[PlacementMap]
    ) -> None:
        """Deadline, routing and accounting state; :meth:`_attach` adds the links."""
        if timeout is not None:
            if timeout <= 0:
                raise QueryError("timeout must be positive")
            self.timeout = timeout
        self.workers = workers
        if placement is not None:
            self._check_width(placement)
        self._router = placement if placement is not None else ShardMap(workers)
        self._route_lock = threading.Lock()
        self._failover_queries = 0
        self._failover_batches = 0
        self._cache_sizes: Dict[int, int] = {}
        self._cache_lock = threading.Lock()
        self.addresses: List[Address] = []
        self._links: List[_WorkerLink] = []

    def _attach(self, addresses: List[Address]) -> None:
        """Point shard ``i`` at ``addresses[i]`` through a fresh link."""
        self._links = [
            _WorkerLink(shard, address, self.timeout) for shard, address in enumerate(addresses)
        ]
        self.addresses = addresses

    def _request_shard(
        self, link: _WorkerLink, queries: Sequence["Query"]
    ) -> Tuple[List["Result"], Dict[str, float], int, int]:
        """Round-trip one shard's sub-batch.

        Returns ``(results, delta, cache_size, advertised_placement_version)``
        — the last is the worker's stored placement-map version riding every
        ``batch_result``, which is how a gateway discovers a map pushed
        through some *other* gateway (see :meth:`_maybe_adopt`).
        """
        frame = {
            "type": "batch",
            "id": link.shard,
            "requests": [request_for(query) for query in queries],
        }
        reply = link.request(frame, budget=len(queries))
        if reply.get("type") != "batch_result":
            raise WorkerUnavailableError(
                f"worker {link.label} answered a batch with {reply.get('type')!r}"
            )
        payloads = reply.get("results")
        if not isinstance(payloads, list) or len(payloads) != len(queries):
            count = len(payloads) if isinstance(payloads, list) else "no"
            raise WorkerUnavailableError(
                f"worker {link.label} returned {count} results "
                f"for a {len(queries)}-request batch"
            )
        results: List["Result"] = []
        for payload in payloads:
            if isinstance(payload, dict) and "error" in payload:
                results.append(ErrorResult(error=str(payload["error"]), solver="remote"))
            else:
                try:
                    results.append(decode_result(payload))
                except QueryError as exc:
                    raise WorkerUnavailableError(
                        f"worker {link.label} sent an undecodable result: {exc}"
                    ) from exc
        # Metadata is untrusted worker output too: malformed values must
        # degrade this shard, not escape the queue future and crash the
        # whole batch past the per-shard containment.
        delta = reply.get("stats_delta")
        if not isinstance(delta, dict):
            raise WorkerUnavailableError(
                f"worker {link.label} sent no stats delta with its results"
            )
        if not all(isinstance(value, (int, float)) for value in delta.values()):
            raise WorkerUnavailableError(f"worker {link.label} sent a non-numeric stats delta")
        try:
            cache_size = int(reply.get("cache_size", 0))
        except (TypeError, ValueError) as exc:
            raise WorkerUnavailableError(
                f"worker {link.label} sent an invalid cache size: {exc}"
            ) from exc
        advert = reply.get("placement_version")
        if not isinstance(advert, int):
            advert = 0
        return results, delta, cache_size, advert

    def solve_batch(
        self,
        service: "QueryService",
        queries: Sequence["Query"],
        context: ExecutionContext,
    ) -> List["Result"]:
        # Snapshot the router once: a placement_update landing mid-batch
        # applies from the *next* batch (any worker answers any initiator,
        # so the in-flight batch stays correct under the old map).
        router = self._router
        parts = router.partition(queries)
        links = self._links
        futures = {
            shard: links[shard].submit(self._request_shard, [query for _, query in entries])
            for shard, entries in parts.items()
        }
        # Collect every shard before merging any stats into the batch
        # context, so the aggregate view stays all-or-nothing per shard: a
        # sub-batch either lands fully (results + its delta) or degrades
        # fully to error results.
        outcomes: Dict[int, Tuple[List["Result"], Dict[str, float], int, int]] = {}
        failures: Dict[int, str] = {}
        for shard, future in futures.items():
            try:
                outcomes[shard] = future.result()
            except WorkerUnavailableError as exc:
                failures[shard] = str(exc)
            except ProtocolError as exc:
                # Client-side encoding failure (e.g. a sub-batch too large
                # for one frame): degrade this shard's requests without
                # having touched — or penalised — the worker connection.
                failures[shard] = f"sub-batch could not be encoded: {exc}"
        # Replica failover round: a failed shard's *replicated* initiators
        # have other workers that can answer them (every worker holds the
        # full graph), so re-dispatch those entries to a surviving replica
        # in one retry wave.  Non-replicated entries keep the old contract:
        # degrade to ErrorResult.  Each retry sub-batch merges its own
        # worker delta all-or-nothing, so every solved query is counted
        # exactly once — never by the failed primary.
        retry_parts: Dict[int, List[Tuple[int, "Query"]]] = {}
        unrecovered: Dict[int, str] = {}
        for shard in failures:
            for index, query in parts[shard]:
                survivors = [
                    replica
                    for replica in router.replicas_of(query.initiator)  # type: ignore[attr-defined]
                    if replica != shard and replica not in failures
                ]
                if survivors:
                    retry_parts.setdefault(survivors[0], []).append((index, query))
                else:
                    unrecovered[index] = failures[shard]
        retry_outcomes: Dict[int, Tuple[List["Result"], Dict[str, float], int, int]] = {}
        if retry_parts:
            retry_futures = {
                target: links[target].submit(self._request_shard, [query for _, query in entries])
                for target, entries in retry_parts.items()
            }
            for target, future in retry_futures.items():
                try:
                    retry_outcomes[target] = future.result()
                except (WorkerUnavailableError, ProtocolError) as exc:
                    for index, _ in retry_parts[target]:
                        unrecovered[index] = f"failover to replica failed: {exc}"
        results: List[Optional["Result"]] = [None] * len(queries)
        cache_updates: Dict[int, int] = {}
        advertised = 0
        recovered = 0
        merge_plan = [
            (shard, entries, outcomes[shard])
            for shard, entries in parts.items()
            if shard not in failures
        ] + [
            (target, entries, retry_outcomes[target])
            for target, entries in retry_parts.items()
            if target in retry_outcomes
        ]
        for shard, entries, outcome in merge_plan:
            shard_results, delta, cache_size, advert = outcome
            for (index, _), result in zip(entries, shard_results):
                results[index] = result
                if not isinstance(result, ErrorResult):
                    # Solved results carry the exact SearchStats recorded
                    # inside the worker; merging them keeps the batch
                    # context's kernel view backend-invariant across the
                    # network hop.  Per-request errors were never solved.
                    context.merge_search(result.stats)
            context.merge_delta(delta)
            cache_updates[shard] = cache_size
            advertised = max(advertised, advert)
        for target, entries in retry_parts.items():
            if target in retry_outcomes:
                recovered += len(entries)
        for index, message in unrecovered.items():
            results[index] = ErrorResult(error=message, solver="remote")
        if cache_updates:
            # Replace wholesale (readers iterate their own snapshot, never
            # a resizing dict) and merge under the lock (two concurrent
            # batches must not lose each other's shard entries).
            with self._cache_lock:
                self._cache_sizes = {**self._cache_sizes, **cache_updates}
        if recovered:
            with self._route_lock:
                self._failover_queries += recovered
                self._failover_batches += 1
        if advertised > router.version:
            self._maybe_adopt(advertised, outcomes, retry_outcomes)
        return results  # type: ignore[return-value]

    def _maybe_adopt(
        self,
        advertised: int,
        outcomes: Dict[int, Tuple[List["Result"], Dict[str, float], int, int]],
        retry_outcomes: Dict[int, Tuple[List["Result"], Dict[str, float], int, int]],
    ) -> None:
        """Fetch and adopt a newer placement map advertised by a worker.

        Best-effort by design: adoption failing (worker died between the
        batch and the fetch, malformed map, shard-count mismatch) leaves
        the current router in place and the next batch will try again — a
        routing refresh must never fail a batch that already solved.
        """
        candidates = [
            shard
            for source in (outcomes, retry_outcomes)
            for shard, (_, _, _, advert) in source.items()
            if advert == advertised
        ]
        if not candidates:  # pragma: no cover - advertised came from outcomes
            return
        link = self._links[candidates[0]]
        try:
            reply = link.request({"type": "placement_get", "id": candidates[0]})
        except WorkerUnavailableError:
            return
        wire = reply.get("map") if reply.get("type") == "placement" else None
        if not isinstance(wire, dict):
            return
        try:
            placement = PlacementMap.from_wire(wire)
        except QueryError:
            return
        if placement.n_shards == self.workers:
            self._adopt(placement)

    def _check_width(self, placement: PlacementMap) -> None:
        if placement.n_shards != self.workers:
            raise QueryError(
                f"placement routes over {placement.n_shards} shards "
                f"but this backend runs {self.workers} workers"
            )

    def _adopt(self, placement: PlacementMap) -> bool:
        """Route later batches by ``placement`` if it is newer; returns whether it was."""
        with self._route_lock:
            if placement.version <= self._router.version:
                return False
            self._router = placement
            return True

    def _clear_one(self, link: _WorkerLink, extras: Optional[Dict] = None) -> Optional[str]:
        """Clear one worker's cache; return an error description or ``None``."""
        # Invalidation must actually try every worker: a link parked in its
        # reconnect-backoff window may front a worker that is healthy again.
        link.reset_backoff()
        frame = {"type": "cache_clear", "id": link.shard}
        if extras:
            frame.update(extras)
        try:
            reply = link.request(frame)
        except WorkerUnavailableError as exc:
            return str(exc)
        if reply.get("type") != "cache_cleared":
            return f"worker {link.label} answered cache_clear with {reply.get('type')!r}"
        return None

    def clear_caches(self, service: "QueryService") -> None:
        """Send a ``cache_clear`` control frame to every worker, concurrently.

        Cache invalidation is a correctness operation — a worker that kept
        its ego-network cache would keep serving pre-change graphs — so
        unlike batch traffic this does *not* degrade silently: every worker
        is attempted, and if any could not be cleared a
        :class:`~repro.exceptions.WorkerUnavailableError` naming them is
        raised (the caller knows the invalidation is incomplete and can
        retry once the workers are back).  The frames fan out through the
        per-shard queues batches use, so the wall clock is bounded by the
        slowest worker, not the sum over a partitioned fleet.

        When the gateway's graph is substrate-backed (it exposes a
        ``path``), the frames carry ``graph_path``/``graph_version`` so each
        worker re-opens that ``.stgq`` file before clearing — the clear
        ships a *reference* to the new graph, never the graph itself.
        """
        extras: Optional[Dict] = None
        graph_path = getattr(service.graph, "path", None)
        if graph_path is not None:
            extras = {"graph_path": graph_path, "graph_version": service.graph.version}
        futures = [link.submit(self._clear_one, extras) for link in self._links]
        failures = [error for error in (future.result() for future in futures) if error]
        with self._cache_lock:
            self._cache_sizes = {}
        if failures:
            raise WorkerUnavailableError("cache clear incomplete: " + "; ".join(failures))

    # ------------------------------------------------------------------
    # live-graph mutation distribution (docs/live_graph.md)
    # ------------------------------------------------------------------
    def _delta_one(self, link: _WorkerLink, batch_wire: Dict) -> Tuple[str, int, int]:
        """Ship one delta frame; returns (status, invalidated, worker_version)."""
        # Like cache invalidation, mutation distribution is a correctness
        # operation: every worker must actually be attempted, backoff or not.
        link.reset_backoff()
        reply = link.request({"type": "delta", "id": link.shard, "batch": batch_wire})
        if reply.get("type") != "delta_result":
            raise WorkerUnavailableError(
                f"worker {link.label} answered a delta with {reply.get('type')!r}"
            )
        try:
            return (
                str(reply.get("status")),
                int(reply.get("invalidated", 0)),
                int(reply.get("version", -1)),
            )
        except (TypeError, ValueError) as exc:
            raise WorkerUnavailableError(
                f"worker {link.label} sent a malformed delta result: {exc}"
            ) from exc

    def _catch_up(self, link: _WorkerLink, frames: List[Dict], target: int) -> int:
        """Replay pre-built catch-up frames to one worker; returns evictions.

        The frames are either a contiguous chain of delta frames (log
        replay) or a single snapshot frame; either way the worker must end
        at ``target`` or the distribution is incomplete.
        """
        invalidated = 0
        version = -1
        for frame in frames:
            reply = link.request(frame)
            rtype = reply.get("type")
            if rtype == "delta_result":
                if reply.get("status") == "gap":
                    raise WorkerUnavailableError(
                        f"worker {link.label} reported a gap mid-replay "
                        f"(at version {reply.get('version')})"
                    )
            elif rtype != "snapshot_applied":
                raise WorkerUnavailableError(
                    f"worker {link.label} answered catch-up with {rtype!r}"
                )
            try:
                invalidated += int(reply.get("invalidated", 0))
                version = int(reply.get("version", -1))
            except (TypeError, ValueError) as exc:
                raise WorkerUnavailableError(
                    f"worker {link.label} sent a malformed catch-up result: {exc}"
                ) from exc
        if version < target:
            raise WorkerUnavailableError(
                f"worker {link.label} is at version {version} after catch-up "
                f"(target {target})"
            )
        return invalidated

    def _snapshot_frame(self, service: "QueryService") -> Dict:
        """Build the snapshot catch-up frame (reference form when possible).

        A substrate-backed gateway whose graph was never overlay-wrapped
        ships a ``graph_path`` reference (the worker re-opens the same
        ``.stgq`` file — the PR 6 reload path) plus version/availability;
        otherwise the full topology goes inline.
        """
        graph_path = getattr(service.graph, "path", None)
        if graph_path is not None:
            return {
                "type": "snapshot",
                "graph_path": graph_path,
                "graph_version": service.graph.version,
                "payload": service.snapshot_payload(inline_graph=False),
            }
        return {"type": "snapshot", "payload": service.snapshot_payload()}

    def apply_mutations(self, service: "QueryService", batch) -> int:
        """Distribute one mutation batch to every worker; returns evictions.

        Runs the catch-up ladder per worker: the versioned delta frame
        first (idempotent — a worker that already has it answers "noop"),
        then, for workers reporting a version gap, a mutation-log replay
        when the gateway's log still bridges the gap, else a snapshot.
        Like :meth:`clear_caches` this is all-or-error: every worker is
        attempted, and if any could not be brought to the batch's target
        version a :class:`~repro.exceptions.WorkerUnavailableError` naming
        them is raised — the fleet must not serve mixed graph versions.

        Called by :meth:`QueryService.apply_mutations` while it holds the
        service's mutation lock (an RLock owned by *this* thread), so the
        catch-up material — log chains, the snapshot payload — is built
        here on the calling thread; the shard queues only ship pre-built
        frames and never touch the service.
        """
        links = self._links
        wire = batch.as_wire()
        futures = {shard: link.submit(self._delta_one, wire) for shard, link in enumerate(links)}
        gaps: Dict[int, int] = {}
        failures: Dict[int, str] = {}
        total = 0
        for shard, future in futures.items():
            try:
                status, invalidated, version = future.result()
            except WorkerUnavailableError as exc:
                failures[shard] = str(exc)
                continue
            if status == "gap":
                gaps[shard] = version
            else:
                total += invalidated
        if gaps:
            plans: Dict[int, List[Dict]] = {}
            snapshot_frame: Optional[Dict] = None
            for shard, version in gaps.items():
                chain = service.mutation_log_since(version) if version >= 0 else None
                if chain:
                    plans[shard] = [
                        {"type": "delta", "id": shard, "batch": b.as_wire()} for b in chain
                    ]
                else:
                    if snapshot_frame is None:
                        snapshot_frame = self._snapshot_frame(service)
                    plans[shard] = [dict(snapshot_frame, id=shard)]
            catch_futures = {
                shard: links[shard].submit(self._catch_up, frames, batch.to_version)
                for shard, frames in plans.items()
            }
            for shard, future in catch_futures.items():
                try:
                    total += future.result()
                except WorkerUnavailableError as exc:
                    failures[shard] = str(exc)
        if failures:
            raise WorkerUnavailableError(
                "mutation distribution incomplete: "
                + "; ".join(failures[shard] for shard in sorted(failures))
            )
        return total

    # ------------------------------------------------------------------
    # placement distribution (docs/placement.md)
    # ------------------------------------------------------------------
    def _placement_one(self, link: _WorkerLink, wire: Dict) -> str:
        """Push one ``placement_update`` frame; returns the worker's status."""
        # Like cache invalidation, placement distribution is a correctness
        # operation: every worker must actually be attempted, backoff or not.
        link.reset_backoff()
        reply = link.request({"type": "placement_update", "id": link.shard, "map": wire})
        if reply.get("type") != "placement_applied":
            raise WorkerUnavailableError(
                f"worker {link.label} answered placement_update with {reply.get('type')!r}"
            )
        return str(reply.get("status"))

    def update_placement(self, placement: PlacementMap) -> Dict[int, str]:
        """Ship ``placement`` to every worker, then adopt it locally.

        All-or-error like :meth:`clear_caches`: every worker is attempted
        concurrently, and if any could not store the map a
        :class:`~repro.exceptions.WorkerUnavailableError` naming them is
        raised — a fleet advertising mixed placement versions would keep
        re-triggering gateway adoption churn.  Returns the per-shard status
        (``"applied"`` or ``"noop"`` — the worker already held this or a
        newer version; same idempotence rule as the ``delta`` frames).

        The local router swaps only if the pushed map is newer than what
        this gateway holds; batches already in flight finish under the map
        they were partitioned with (correct on any worker).  Worker caches
        are never touched — an initiator whose shard did not move keeps its
        hot ego networks, which is the whole point of versioned maps over
        re-hashing.
        """
        self._check_width(placement)
        wire = placement.as_wire()
        futures = {
            shard: link.submit(self._placement_one, wire) for shard, link in enumerate(self._links)
        }
        statuses: Dict[int, str] = {}
        failures: Dict[int, str] = {}
        for shard, future in futures.items():
            try:
                statuses[shard] = future.result()
            except WorkerUnavailableError as exc:
                failures[shard] = str(exc)
        if failures:
            raise WorkerUnavailableError(
                "placement distribution incomplete: "
                + "; ".join(failures[shard] for shard in sorted(failures))
            )
        self._adopt(placement)
        return statuses

    @property
    def placement_version(self) -> int:
        """Version of the active routing map (0 = CRC32 fallback)."""
        return self._router.version

    def route_report(self) -> Dict[str, object]:
        """Active router metrics plus this backend's failover counters."""
        report = self._router.route_report()
        with self._route_lock:
            report["failover_queries"] = self._failover_queries
            report["failover_batches"] = self._failover_batches
        return report

    def worker_stats(self) -> List[Optional[Dict]]:
        """Per-worker ``stats`` control-frame snapshots (``None`` when down)."""
        snapshots: List[Optional[Dict]] = []
        for link in self._links:
            try:
                snapshots.append(link.request({"type": "stats"}))
            except WorkerUnavailableError:
                snapshots.append(None)
        return snapshots

    def cache_entries(self) -> Optional[int]:
        sizes = self._cache_sizes  # snapshot ref: solve_batch replaces, never mutates
        return sum(sizes.values())

    def close(self) -> None:
        """Drain the shard queues and close connections (workers keep running)."""
        for link in self._links:
            link.close()
        self._cache_sizes = {}
