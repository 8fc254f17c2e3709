"""Executor backends for :class:`~repro.service.QueryService` batches.

The service's batch path is a strategy object implementing
:class:`ExecutorBackend`:

``serial``
    Solve queries one after another on the calling thread, against the
    service's own ego-network cache.  Zero overhead, fully deterministic
    scheduling; the in-process executor and the baseline the others are
    compared to.  The kernel is pure Python, so an in-process thread pool
    could not run two solves at once under the GIL; parallelism comes from
    the sharded backends below.

``remote``
    Shard the workload by initiator across TCP workers (``stgq worker``)
    behind persistent framed connections.  Every worker holds its own copy
    of the social graph plus a private ego-network LRU cache, and a query
    routes to the worker owning its initiator — by CRC32
    :class:`~repro.service.ShardMap` by default, or by a versioned
    load-aware :class:`~repro.service.placement.PlacementMap` with replica
    fan-out and failover — so caches stay hot without any cross-worker
    invalidation.  A dead worker fails its shard's requests, not the batch.
    Lives in :mod:`repro.service.net.remote`; needs worker addresses, so
    build it as ``make_backend("remote", connect="host:p1,host:p2")`` or
    construct a :class:`~repro.service.net.RemoteBackend` directly.

``process``
    ``remote`` over worker processes the backend spawns itself on
    127.0.0.1, one per shard, started on the first batch.  This is the
    backend that scales the GIL-bound kernel across cores on one box.

Every ``solve_batch`` call receives the batch's
:class:`~repro.service.context.ExecutionContext` and records all accounting
into it: ``serial`` records per query as it solves, the sharded backends
merge each answering worker's returned context *delta* — so
``service.stats()`` and ``service.cache_info()`` aggregate identically
whichever backend ran the batch, and no backend ever snapshots or diffs
service-global state.
"""

from __future__ import annotations

import os
import pickle
import threading
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional, Protocol, Sequence, Union

from ..exceptions import QueryError
from ..graph.mutations import MutationBatch
from .context import ExecutionContext
from .net.cluster import LocalWorkerCluster, start_service_workers
from .net.remote import RemoteBackend, parse_addresses
from .placement import PlacementMap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .query_service import Query, QueryService, Result

__all__ = [
    "ALL_BACKEND_NAMES",
    "BACKEND_NAMES",
    "ExecutorBackend",
    "ProcessBackend",
    "SerialBackend",
    "make_backend",
]

#: Backends constructible from a bare name; ``remote`` also exists but
#: needs worker addresses (see :func:`make_backend`).
BACKEND_NAMES = ("serial", "process")

#: Every backend name, for CLI choices and documentation.
ALL_BACKEND_NAMES = BACKEND_NAMES + ("remote",)


class ExecutorBackend(Protocol):
    """Strategy interface the service delegates batch execution to.

    Implementations may keep persistent executors; they are started lazily on
    the first batch and released by :meth:`close` (idempotent — a closed
    backend restarts on its next batch).
    """

    name: str
    workers: int

    def solve_batch(
        self,
        service: "QueryService",
        queries: Sequence["Query"],
        context: ExecutionContext,
    ) -> List["Result"]:
        """Answer ``queries`` in submission order, recording stats into ``context``.

        ``context`` is the batch's private accounting scope; the service
        merges it into its totals after this returns.  Implementations must
        not touch the service's global counters directly.
        """
        ...

    def cache_entries(self) -> Optional[int]:
        """Total cached ego networks held by workers, or ``None`` when the
        backend uses the service's own in-process cache."""
        ...

    def clear_caches(self, service: "QueryService") -> None:
        """Drop every ego-network cache this backend answers from.

        Called by :meth:`QueryService.clear_cache` *after* the service has
        cleared its own front-end cache.  Backends whose workers hold
        private caches (``process``, ``remote``) must reach them here —
        otherwise a post-change service keeps serving pre-change ego
        networks from exactly the backends production uses.  ``serial``,
        which answers from the service's own cache, has nothing further to
        clear.
        """
        ...

    def apply_mutations(self, service: "QueryService", batch: MutationBatch) -> int:
        """Replicate an applied mutation batch to every backend worker.

        Called by :meth:`QueryService.apply_mutations` *after* the service
        has applied the batch locally and evicted its own touched entries.
        Sharded backends forward the versioned delta to each worker (which
        applies it with targeted invalidation of its private cache); a
        worker that reports a version gap is resynced by a log replay or a
        snapshot.  Returns the total number of worker cache entries evicted.
        ``serial`` answers from the service's own cache — already
        invalidated — and returns 0.
        """
        ...

    def close(self) -> None:
        """Release threads and worker processes (no-op for stateless backends)."""
        ...


class SerialBackend:
    """Solve every query on the calling thread, in order."""

    name = "serial"
    workers = 1

    def solve_batch(
        self,
        service: "QueryService",
        queries: Sequence["Query"],
        context: ExecutionContext,
    ) -> List["Result"]:
        return [service._solve_local(query, context) for query in queries]

    def cache_entries(self) -> Optional[int]:
        return None

    def clear_caches(self, service: "QueryService") -> None:
        pass  # answers from the service's own cache, already cleared

    def apply_mutations(self, service: "QueryService", batch: MutationBatch) -> int:
        return 0  # answers from the service's own cache, already invalidated

    def close(self) -> None:
        pass


class ProcessBackend(RemoteBackend):
    """A :class:`~repro.service.net.RemoteBackend` over children it spawns itself.

    The first batch starts one child per shard
    (:func:`~repro.service.net.cluster.start_service_workers`), bound to
    that batch's service: each serves the service's graph, calendars,
    search parameters, live version and an even share of its
    ``cache_size`` (keys partition by initiator) as a serial service on an
    ephemeral 127.0.0.1 port.  Routing, dispatch, stats-delta merging,
    delta catch-up and replica failover are then the remote backend's, and
    so is the failure model: a dead child turns its shard's queries into
    :class:`~repro.service.codec.ErrorResult`\\ s while the other shards
    answer, and the remote deadlines bound local batches too.  Vertex ids
    must survive a JSON round trip.  :meth:`close` and :meth:`clear_caches`
    stop the children; the next batch starts fresh ones.  So does a batch
    that finds a child exited: it restarts them all, as ``clear_caches``
    would.

    Parameters
    ----------
    workers:
        Number of shards / child processes (default: ``os.cpu_count()``,
        or the placement map's shard count when one is given).
    timeout:
        Per-request time budget in seconds, as for
        :class:`~repro.service.net.RemoteBackend` (default 30).
    placement:
        Optional :class:`~repro.service.placement.PlacementMap` replacing
        the CRC32 :class:`~repro.service.ShardMap` fallback; its
        ``n_shards`` must match ``workers``.  Every child holds the full
        graph, so any placement returns results byte-identical to serial
        (replicas may each build their own copy of a hot ego, so cache
        misses can exceed serial by one per extra replica used).
    """

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        timeout: Optional[float] = None,
        placement: Optional[PlacementMap] = None,
    ) -> None:
        if workers is None and placement is not None:
            workers = placement.n_shards
        # Routing state now; the links are attached once the children have
        # started and announced their ports (see _ensure_started).
        self._init_shards(workers or os.cpu_count() or 1, timeout, placement)
        self._children: Optional[LocalWorkerCluster] = None
        self._finalizer: Optional[weakref.finalize] = None
        self._bound_service: Optional["QueryService"] = None
        self._start_lock = threading.Lock()

    def _ensure_started(self, service: "QueryService") -> None:
        children = self._children
        if children is not None and self._bound_service is service:
            if all(child.poll() is None for child in children.processes):
                return
            self._stop(children)  # a child exited: restart them all
        # Lock order: the service's mutation lock, then ours — the order
        # apply_snapshot -> clear_caches -> close takes them in.  Holding
        # the first keeps the shipped graph and live version consistent.
        with service._mutation_lock, self._start_lock:
            if self._children is not None:
                if self._bound_service is not service:
                    raise QueryError(
                        "a ProcessBackend instance cannot be shared between services; "
                        "close() it first or give each service its own backend"
                    )
                return
            per_worker_cache = max(1, -(-service.cache_size // self.workers))
            state = pickle.dumps(
                (
                    service.graph,
                    service.calendars,
                    service.parameters,
                    per_worker_cache,
                    service.live_version,
                )
            )
            children = start_service_workers(self.workers, state)
            # Safety net for callers that never close(): stop the children
            # when the backend is garbage collected or the interpreter exits.
            self._finalizer = weakref.finalize(self, children.close)
            self._attach(parse_addresses(children.addresses))
            self._children = children
            self._bound_service = service

    def solve_batch(
        self,
        service: "QueryService",
        queries: Sequence["Query"],
        context: ExecutionContext,
    ) -> List["Result"]:
        self._ensure_started(service)
        return super().solve_batch(service, queries, context)

    def update_placement(self, placement: PlacementMap) -> bool:
        """Adopt ``placement`` for subsequent batches; caches stay hot.

        Returns ``True`` when adopted, ``False`` when the map is not newer
        than the active one (same idempotence rule as the wire's
        ``placement_update`` frame).  This backend is its children's only
        gateway, so the map stays here: a swap only changes which child a
        future batch routes an initiator to, and initiators whose shard is
        unchanged between versions keep their hot cache entries.  Batches
        already partitioned keep their old routing; they remain correct
        because any child can answer any initiator.
        """
        self._check_width(placement)
        return self._adopt(placement)

    def worker_rss(self) -> Dict[int, int]:
        """Resident set size (bytes) per running child, from ``/proc/<pid>/status``.

        Returns ``{}`` before the children have started.  Used by the
        substrate benchmarks to verify that children booted from an mmap'd
        ``.stgq`` file grow by page-cache *references*, not by a private
        graph copy.
        """
        children = self._children
        if children is None:
            return {}
        return {shard: _rss_bytes(child.pid) for shard, child in enumerate(children.processes)}

    def clear_caches(self, service: "QueryService") -> None:
        """Stop the children; the next batch restarts them from ``service``.

        Each child holds the graph and calendars it was started with, so
        clearing its LRU would re-extract the pre-change topology.  The
        restart ships the service's *current* graph, calendars and live
        version, which makes ``QueryService.clear_cache()`` a true "the
        graph changed" invalidation on this backend.  Requests already
        queued finish first; a batch that reaches a child after it stopped
        gets ``ErrorResult``\\ s for that shard.
        """
        self.close()

    def apply_mutations(self, service: "QueryService", batch: MutationBatch) -> int:
        """Forward a versioned delta to every child; returns their evictions.

        Children that have not started yet have no state to update: they
        boot from the already-mutated graph at the current live version.
        When one child has exited they are all stopped instead, and the
        next batch restarts them from that graph, as it would anyway.  A
        child that dies after this check fails the call.
        """
        children = self._children
        if children is None:
            return 0
        if any(child.poll() is not None for child in children.processes):
            self._stop(children)
            return 0
        return super().apply_mutations(service, batch)

    def close(self) -> None:
        """Finish in-flight requests, then stop the children (idempotent)."""
        self._stop()

    def _stop(self, exited: Optional[LocalWorkerCluster] = None) -> None:
        """Stop the children; given ``exited``, only if they are still those."""
        with self._start_lock:
            if exited is not None and self._children is not exited:
                return  # a concurrent batch has restarted them already
            children, self._children = self._children, None
            finalizer, self._finalizer = self._finalizer, None
            self._bound_service = None
        if finalizer is not None:
            finalizer.detach()
        super().close()
        if children is not None:
            children.close()


def _rss_bytes(pid: int) -> int:
    """``VmRSS`` of process ``pid`` in bytes (0 when it cannot be read)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:  # exited, or no procfs on this platform
        pass
    return 0


def make_backend(
    backend: Union[str, "ExecutorBackend"],
    workers: Optional[int] = None,
    connect: Optional[str] = None,
    timeout: Optional[float] = None,
    placement: Optional[PlacementMap] = None,
) -> "ExecutorBackend":
    """Resolve a backend spec (name or ready instance) to an instance.

    ``workers`` only applies when ``backend`` is a name; a ready instance
    keeps its own configuration.  ``connect`` (worker addresses,
    ``"host:port,host:port"``) only applies to ``backend="remote"``, whose
    shard count comes from the address list; ``timeout`` applies to both
    sharded backends.
    ``placement`` (a loaded :class:`~repro.service.placement.PlacementMap`)
    applies to the sharded backends only — ``serial`` has no routing to
    place.
    """
    if not isinstance(backend, str):
        return backend
    if placement is not None and backend not in ("process", "remote"):
        raise QueryError(
            f"backend {backend!r} does not route by initiator; "
            "a placement map applies to 'process' or 'remote' only"
        )
    if backend == "serial":
        return SerialBackend()
    if backend == "process":
        return ProcessBackend(workers, timeout, placement)
    if backend == "remote":
        if connect is None:
            raise QueryError(
                "backend 'remote' needs worker addresses: "
                "make_backend('remote', connect='host:port,host:port')"
            )
        return RemoteBackend(connect, timeout=timeout, placement=placement)
    names = ", ".join(ALL_BACKEND_NAMES)
    raise QueryError(f"unknown backend {backend!r}; expected one of {names}")
