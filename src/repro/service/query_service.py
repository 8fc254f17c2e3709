"""Batched query service over one shared social graph.

See :mod:`repro.service` for the subsystem overview.  This module holds the
front-end: :class:`QueryService` (the server object) and :class:`CacheInfo`
(a point-in-time snapshot of the feasible-graph cache).  Per-batch
accounting lives in :mod:`repro.service.context` (:class:`ExecutionContext`
/ :class:`ServiceStats`, re-exported here); batch execution strategies live
in :mod:`repro.service.backends`; initiator-to-worker routing lives in
:mod:`repro.service.sharding`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import logging
import threading
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from ..core.query import SearchParameters, SGQuery, STGQuery
from ..core.result import GroupResult, STGroupResult
from ..core.sgselect import SGSelect
from ..core.stgselect import STGSelect
from ..exceptions import ProtocolError, QueryError, ReproError, VertexNotFoundError
from ..graph.compiled import CompiledFeasibleGraph
from ..graph.extraction import FeasibleGraph, extract_query_forms
from ..graph.mutations import (
    Mutation,
    MutationBatch,
    apply_mutation,
    graph_from_snapshot,
    graph_to_snapshot,
)
from ..graph.overlay import GraphOverlay
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..types import Vertex
from .backends import ExecutorBackend, make_backend
from .codec import ErrorResult, query_from_request
from .placement import PlacementMap
from .context import ExecutionContext, ServiceStats

__all__ = [
    "QueryService",
    "ServiceStats",
    "CacheInfo",
    "ExecutionContext",
    "MutationReport",
    "MUTATION_LOG_CAPACITY",
]

logger = logging.getLogger(__name__)

#: How many applied MutationBatches the service keeps for delta catch-up.
#: A replica whose version gap is no longer covered by the log falls back
#: to a full snapshot (see ``docs/live_graph.md``).
MUTATION_LOG_CAPACITY = 1024

Query = Union[SGQuery, STGQuery]
Result = Union[GroupResult, STGroupResult]

#: Cache key: one entry per (initiator, radius) ego network.
CacheKey = Tuple[Vertex, int]
#: Cache value: the extracted feasible graph plus the compiled bitset form
#: the default kernel runs on (``None`` on the reference kernel).  Caching
#: the compiled form next to the extraction is what lets every query of
#: every batch over one ego network share a single compilation.
CacheEntry = Tuple[FeasibleGraph, Optional[CompiledFeasibleGraph]]


@dataclass(frozen=True)
class CacheInfo:
    """Point-in-time snapshot of the feasible-graph cache."""

    hits: int
    misses: int
    size: int
    max_size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when none yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        """The counters plus ``hit_rate`` (4 places) as a JSON-ready dict."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "max_size": self.max_size,
            "hit_rate": round(self.hit_rate, 4),
        }


@dataclass(frozen=True)
class MutationReport:
    """What one :meth:`QueryService.apply_mutations` call did.

    ``invalidated`` counts front-end cache entries evicted by targeted
    invalidation; ``worker_invalidations`` sums the counts the backend's
    workers reported for the same batch (0 on serial, whose cache *is* the
    front-end one).
    """

    mutations: int
    invalidated: int
    worker_invalidations: int
    from_version: int
    to_version: int

    @property
    def invalidations_per_mutation(self) -> float:
        """Front-end cache entries evicted per mutation (0.0 when none)."""
        return self.invalidated / self.mutations if self.mutations else 0.0


class QueryService:
    """Serve many SGQ/STGQ queries over one shared :class:`SocialGraph`.

    Parameters
    ----------
    graph:
        The social graph all queries run against.
    calendars:
        Availability schedules; required only for :class:`STGQuery` traffic.
    parameters:
        Search tunables forwarded to SGSelect/STGSelect (the default uses
        the compiled bitset kernel).
    cache_size:
        Maximum number of ``(initiator, radius)`` ego networks to keep
        (feasible graph + its compiled form).  Least-recently-used entries
        are evicted beyond that.  The ``process`` backend splits this budget
        evenly across its children (keys partition by initiator).
    max_workers:
        Child worker processes (= shards) for the ``process`` backend
        (default: the placement map's shard count, else
        ``os.cpu_count()``); ``serial`` ignores it.
    backend:
        Batch execution strategy — ``"serial"`` (default) or ``"process"``,
        or a ready :class:`~repro.service.ExecutorBackend` instance.  See
        :mod:`repro.service.backends` for the trade-offs: ``serial`` solves
        in order on the calling thread against this service's ego-network
        cache; ``process`` shards initiators across worker processes it
        spawns on 127.0.0.1, each holding its own graph copy and cache, and
        scales the GIL-bound compiled kernel across cores.
        It is the ``remote`` backend over local children, so a dead child
        fails its shard's queries (as ``ErrorResult``\\ s), not the whole
        batch, until the next batch restarts it, and the remote deadlines
        bound its batches; vertex ids must survive a JSON round trip.
    placement:
        Optional :class:`~repro.service.placement.PlacementMap` routing the
        ``process`` backend by observed load instead of the CRC32 fallback
        (see ``docs/placement.md``).  Rejected for backends that do not
        route by shard.

    Notes
    -----
    Accounting: every batch (and every standalone :meth:`solve`) runs under
    an :class:`~repro.service.context.ExecutionContext` — the per-batch
    scope the solvers, the cache and the backends record into.  The context
    is merged into the service's lifetime totals exactly once, atomically,
    when the batch completes; a batch that raises merges nothing, so
    ``stats()`` is all-or-nothing per batch on every backend.  Callers may
    pass their own (single-use) context to read the exact per-batch delta —
    this is how the TCP worker answers concurrent batch frames from several
    gateways with exact ``stats_delta``\\ s and no cross-batch serialization.

    Thread safety: the cache is guarded by one lock and the lifetime totals
    by another; per-batch counters live in the batch's own context, so
    concurrent batches never contend on stats state.  Concurrent cache
    misses on the same ``(initiator, radius)`` key are single-flighted: one
    caller builds, the others wait and count a hit, so hit/miss totals are
    interleaving-independent.  The cached :class:`FeasibleGraph` /
    :class:`CompiledFeasibleGraph` values are immutable after construction,
    so concurrent searches share them without synchronisation.  The
    underlying graph must not be mutated behind the service's back — route
    all live changes through :meth:`apply_mutations`, which serializes the
    mutation stream, evicts exactly the touched cached egos (reverse vertex
    index + vertex epochs) and replicates the change to every backend
    worker as a versioned delta (see ``docs/live_graph.md``).

    The service is a context manager; ``close()`` (or leaving the ``with``
    block) releases backend threads and worker processes.
    """

    def __init__(
        self,
        graph: SocialGraph,
        calendars: Optional[CalendarStore] = None,
        parameters: Optional[SearchParameters] = None,
        cache_size: int = 128,
        max_workers: Optional[int] = None,
        backend: Union[str, ExecutorBackend] = "serial",
        placement: Optional["PlacementMap"] = None,
    ) -> None:
        if cache_size < 1:
            raise QueryError(f"cache_size must be >= 1, got {cache_size}")
        self.graph = graph
        self.calendars = calendars
        self.parameters = parameters or SearchParameters()
        self.cache_size = cache_size
        self._cache: "OrderedDict[CacheKey, CacheEntry]" = OrderedDict()
        self._cache_lock = threading.Lock()
        self._cache_generation = 0
        self._pending_builds: Dict[CacheKey, threading.Event] = {}
        # Live-graph state (docs/live_graph.md).  _vertex_index is the
        # reverse index powering targeted invalidation: vertex -> cached
        # (initiator, radius) keys whose ego contains it (guarded by
        # _cache_lock, maintained on insert/evict).  _vertex_epochs records
        # the live version of the last mutation touching each vertex so an
        # in-flight build can detect, at insert time, that its ego went
        # stale mid-build.  _mutation_lock serializes the mutation stream;
        # _mutation_log keeps recent batches for replica catch-up.
        self._vertex_index: Dict[Vertex, Set[CacheKey]] = {}
        self._vertex_epochs: Dict[Vertex, int] = {}
        self._mutation_lock = threading.RLock()
        self._mutation_log: Deque[MutationBatch] = deque(maxlen=MUTATION_LOG_CAPACITY)
        self._live_version = 0
        self._availability_overrides: Dict[Vertex, Tuple[int, ...]] = {}
        self._stats_lock = threading.Lock()
        self._stats = ServiceStats()
        self._backend = make_backend(backend, max_workers, placement=placement)
        self.max_workers = self._backend.workers

    @property
    def backend(self) -> ExecutorBackend:
        """The executor backend answering this service's batches."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Name of the active backend (``serial`` / ``process`` / ``remote``)."""
        return self._backend.name

    # ------------------------------------------------------------------
    # feasible-graph cache
    # ------------------------------------------------------------------
    def _lookup(self, initiator: Vertex, radius: int, context: ExecutionContext) -> CacheEntry:
        """Return the (feasible, compiled) entry for an ego network.

        The hit/miss is counted into ``context`` (the batch's scope, not the
        service globals).  Concurrent misses on the same key are
        single-flighted: the first caller builds while the others wait on an
        event and then count a hit — so the hit/miss totals are independent
        of how batches interleave, which is what keeps ``cache_info()``
        backend-invariant now that batches run concurrently.

        Builds are generation-stamped against :meth:`clear_cache`: a build
        that was in flight when the cache was cleared still returns its
        result to its own caller (computed from the graph at call time) but
        must not re-insert the now-stale entry, so insertion is skipped
        unless the generation still matches the one the build started
        under.  Mutations extend the same idea per vertex: the build also
        captures the live version it started at, and insertion is skipped
        when any vertex of the extracted ego was touched by a later
        mutation (``_vertex_epochs``) — a targeted invalidation cannot see
        a pending key, so without this check an in-flight build could
        resurrect a stale ego right after the mutation evicted it.
        """
        key = (initiator, radius)
        while True:
            wait_for: Optional[threading.Event] = None
            with self._cache_lock:
                entry = self._cache.get(key)
                if entry is not None:
                    self._cache.move_to_end(key)
                else:
                    generation = self._cache_generation
                    epoch = self._live_version
                    pending = self._pending_builds.get(key)
                    if pending is None:
                        event = self._pending_builds[key] = threading.Event()
                    else:
                        wait_for = pending
            if entry is not None:
                context.record_cache(hit=True)
                return entry
            if wait_for is None:
                break  # this caller owns the build
            wait_for.wait()
            # The builder finished (or failed): re-check the cache.  If the
            # build failed — or the entry was already evicted — the loop
            # promotes this caller to builder.
        context.record_cache(hit=False)
        try:
            # Build outside the locks: extraction can be expensive.  On a
            # CSR graph the single call derives feasible + compiled from
            # one gather of the feasible rows.
            feasible, compiled = extract_query_forms(
                self.graph, initiator, radius, self.parameters.kernel
            )
            with self._cache_lock:
                if self._cache_generation == generation and not self._stale_since(feasible, epoch):
                    self._cache[key] = (feasible, compiled)
                    self._cache.move_to_end(key)
                    self._index_entry(key, feasible)
                    while len(self._cache) > self.cache_size:
                        evicted_key, evicted = self._cache.popitem(last=False)
                        self._unindex_entry(evicted_key, evicted[0])
        finally:
            # Always release waiters, even when the build raised (they will
            # retry and surface their own error).  Only pop the event if it
            # is still ours — a concurrent clear/rebuild cycle may have
            # installed a successor builder's event under the same key.
            with self._cache_lock:
                if self._pending_builds.get(key) is event:
                    del self._pending_builds[key]
            event.set()
        return feasible, compiled

    # -- reverse index + staleness (all callers hold _cache_lock) --------
    def _index_entry(self, key: CacheKey, feasible: FeasibleGraph) -> None:
        for v in feasible.graph:
            self._vertex_index.setdefault(v, set()).add(key)

    def _unindex_entry(self, key: CacheKey, feasible: FeasibleGraph) -> None:
        for v in feasible.graph:
            keys = self._vertex_index.get(v)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._vertex_index[v]

    def _stale_since(self, feasible: FeasibleGraph, epoch: int) -> bool:
        return any(self._vertex_epochs.get(v, 0) > epoch for v in feasible.graph)

    def cache_info(self) -> CacheInfo:
        """Snapshot of cache effectiveness (aggregated across process workers)."""
        with self._stats_lock:
            hits = self._stats.cache_hits
            misses = self._stats.cache_misses
        size = self._backend.cache_entries()
        if size is None:
            with self._cache_lock:
                size = len(self._cache)
        return CacheInfo(hits=hits, misses=misses, size=size, max_size=self.cache_size)

    def clear_cache(self) -> None:
        """Drop every cached ego network (e.g. after the graph changed).

        Reaches *every* cache the service's backend answers from, not just
        the front-end one: the ``process`` backend stops its children (the
        next batch restarts them from the current graph/calendars, so a
        mutated graph is actually reloaded), and the ``remote`` backend
        sends a ``cache_clear`` control frame to every TCP worker.  The
        generation bump invalidates builds still in flight: a build that
        started before the clear completes normally for its caller but no
        longer inserts its (pre-clear) entry.

        Raises
        ------
        WorkerUnavailableError
            On the ``remote`` backend, when a worker cannot be reached —
            the invalidation would be incomplete, which the caller must
            know about (a worker that kept its cache would keep serving
            pre-change ego networks).
        """
        with self._cache_lock:
            self._cache_generation += 1
            self._cache.clear()
            self._vertex_index.clear()
        self._backend.clear_caches(self)

    # ------------------------------------------------------------------
    # live-graph mutations (docs/live_graph.md)
    # ------------------------------------------------------------------
    @property
    def live_version(self) -> int:
        """Position in the mutation stream: mutations applied since boot.

        Replicas built from the same seeded dataset (or the same ``.stgq``
        substrate) start at 0 and advance by exactly one per mutation, so
        two services at the same live version hold identical graph and
        availability state.  Distinct from the per-object
        ``graph.graph_version`` counter (which also counts direct mutating
        calls on the substrate) and from the CSR content-hash ``version``.
        """
        with self._mutation_lock:
            return self._live_version

    def apply_mutations(self, mutations: Sequence[Mutation]) -> MutationReport:
        """Apply a mutation run to the live graph and distribute it.

        The operator-facing entry point: applies each mutation to the
        service's graph/calendars (wrapping an immutable substrate in a
        :class:`GraphOverlay` on first edge mutation), advances the live
        version by one per mutation, evicts exactly the cached egos that
        contain a touched vertex (via the reverse vertex index), appends
        the batch to the catch-up log, and fans the versioned delta out
        through the backend (delta frames to every TCP or child worker).

        Error semantics: mutations apply in order; if one fails (e.g.
        ``remove_edge`` on a missing edge raises
        :class:`~repro.exceptions.GraphError`), the *applied prefix* is
        still versioned, logged and distributed — keeping every replica
        consistent with this service — and the error is then re-raised.

        Raises
        ------
        GraphError
            From the failing mutation, after the applied prefix has been
            distributed.
        WorkerUnavailableError
            On the sharded backends when a worker could not be brought to
            the target version (the fleet would be serving mixed versions).
        """
        run: List[Mutation] = list(mutations)
        for mutation in run:
            if not isinstance(mutation, Mutation):
                raise QueryError(f"expected a Mutation, got {type(mutation).__name__}")
        with self._mutation_lock:
            from_version = self._live_version
            if any(m.kind != "update_availability" for m in run):
                if not hasattr(self.graph, "add_edge"):
                    self.graph = GraphOverlay(self.graph)
            applied: List[Mutation] = []
            touched: List[Vertex] = []
            error: Optional[ReproError] = None
            for mutation in run:
                try:
                    touched.extend(apply_mutation(self.graph, self.calendars, mutation))
                except ReproError as exc:
                    error = exc
                    break
                applied.append(mutation)
                if mutation.kind == "update_availability":
                    self._availability_overrides[mutation.person] = mutation.slots or ()
            invalidated = 0
            worker_invalidations = 0
            to_version = from_version
            if applied:
                to_version = from_version + len(applied)
                self._live_version = to_version
                batch = MutationBatch(from_version, to_version, tuple(applied))
                self._mutation_log.append(batch)
                invalidated = self._invalidate_vertices(touched, to_version)
                with self._stats_lock:
                    self._stats.mutations += len(applied)
                    self._stats.invalidations += invalidated
                worker_invalidations = self._backend.apply_mutations(self, batch)
        if error is not None:
            raise error
        return MutationReport(
            mutations=len(applied),
            invalidated=invalidated,
            worker_invalidations=worker_invalidations,
            from_version=from_version,
            to_version=to_version,
        )

    def _invalidate_vertices(self, vertices: Iterable[Vertex], epoch: int) -> int:
        """Evict every cached ego containing a touched vertex; return count.

        Also stamps the touched vertices with ``epoch`` so in-flight builds
        of egos containing them skip their insert (see :meth:`_lookup`).
        """
        dropped = 0
        with self._cache_lock:
            for v in set(vertices):
                self._vertex_epochs[v] = epoch
                for key in tuple(self._vertex_index.get(v, ())):
                    entry = self._cache.pop(key, None)
                    if entry is not None:
                        dropped += 1
                        self._unindex_entry(key, entry[0])
        return dropped

    def apply_delta(self, batch: MutationBatch) -> Tuple[str, int]:
        """Apply a replicated :class:`MutationBatch`; return (status, evicted).

        The replica-facing counterpart of :meth:`apply_mutations`, with the
        version handshake that makes delta application idempotent:

        * ``batch.to_version <= live_version`` — already applied (e.g. a
          retried frame): ``("noop", 0)``, nothing touched.
        * ``batch.from_version == live_version`` — contiguous: applied,
          ``("applied", n_evicted)``.
        * anything else — a gap this batch cannot bridge: ``("gap", 0)``;
          the caller must catch up from the mutation log or fall back to a
          snapshot/substrate reload.
        """
        with self._mutation_lock:
            current = self._live_version
            if batch.to_version <= current:
                return ("noop", 0)
            if batch.from_version != current:
                return ("gap", 0)
            report = self.apply_mutations(batch.mutations)
            return ("applied", report.invalidated)

    def mutation_log_since(self, version: int) -> Optional[List[MutationBatch]]:
        """Contiguous logged batches taking ``version`` to the live version.

        Returns ``None`` when the log cannot bridge the gap (the replica is
        older than the log's tail, or ``version`` is not a batch boundary)
        — the caller must fall back to a snapshot.
        """
        with self._mutation_lock:
            if version > self._live_version:
                return None
            chain: List[MutationBatch] = []
            at = version
            for batch in self._mutation_log:
                if batch.to_version <= at:
                    continue
                if batch.from_version != at:
                    return None
                chain.append(batch)
                at = batch.to_version
            return chain if at == self._live_version else None

    def snapshot_payload(self, inline_graph: bool = True) -> Dict:
        """Full live state as a JSON-ready dict (the last-resort fallback).

        Carries the complete topology, the availability overrides applied
        since boot, and the live version to pin the receiving replica at.
        Pass ``inline_graph=False`` to omit the topology — the remote
        backend does this when the receiving worker can re-open the same
        ``.stgq`` substrate file instead (the snapshot then ships a file
        *reference* plus this payload's version/availability).
        """
        with self._mutation_lock:
            payload = graph_to_snapshot(self.graph) if inline_graph else {}
            payload["version"] = self._live_version
            if self._availability_overrides:
                payload["availability"] = [
                    [person, list(slots)]
                    for person, slots in self._availability_overrides.items()
                ]
            return payload

    def apply_snapshot(self, payload: Dict, graph: Optional[object] = None) -> int:
        """Replace the live state with a snapshot; return evicted entry count.

        ``graph`` overrides the payload's inline topology — the TCP worker
        passes the freshly re-opened ``.stgq`` substrate here when the
        snapshot arrived as a ``graph_path`` reference (the PR 6 reload
        path) instead of inline edges.  The cache is fully cleared (with a
        generation bump, so in-flight builds cannot resurrect pre-snapshot
        egos) and the live version is pinned to the snapshot's.
        """
        try:
            version = int(payload["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"snapshot payload missing a usable version: {exc}") from exc
        with self._mutation_lock:
            new_graph = graph if graph is not None else graph_from_snapshot(payload)
            availability = payload.get("availability", [])
            if availability and self.calendars is None:
                raise ProtocolError("snapshot carries availability but service has no calendars")
            from ..temporal.schedule import Schedule

            self.graph = new_graph
            self._availability_overrides = {}
            for person, slots in availability:
                self.calendars.set(person, Schedule(self.calendars.horizon, slots))
                self._availability_overrides[person] = tuple(slots)
            self._live_version = version
            self._mutation_log.clear()
            with self._cache_lock:
                dropped = len(self._cache)
                self._cache_generation += 1
                self._cache.clear()
                self._vertex_index.clear()
                self._vertex_epochs.clear()
            self._backend.clear_caches(self)
        return dropped

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def _validate(self, query: Query) -> None:
        """Reject queries this service cannot answer before they reach an executor.

        Unknown initiators and STGQs longer than the planning horizon are
        rejected here rather than deep inside the extraction or the solver
        so every backend fails identically, per query — the remote backend
        would otherwise degrade them to in-band error results while the
        local backends raise, and a solver error fails every query batched
        with it.  Front doors reach it through :meth:`parse_request`;
        :meth:`solve_many` runs it again for callers that build queries
        themselves.
        """
        if isinstance(query, STGQuery):
            if self.calendars is None:
                raise QueryError("a CalendarStore is required for social-temporal queries")
            if query.activity_length > self.calendars.horizon:
                raise QueryError(
                    f"activity length m={query.activity_length} exceeds the planning "
                    f"horizon {self.calendars.horizon}"
                )
        elif not isinstance(query, SGQuery):
            raise QueryError(f"unsupported query type {type(query).__name__}")
        if query.initiator not in self.graph:
            raise VertexNotFoundError(query.initiator)

    def _merge_context(self, context: ExecutionContext) -> None:
        """Fold one completed batch context into the lifetime totals.

        This is the *only* writer of the service-global counters — one
        atomic merge per completed batch, never touched mid-flight — which
        is what lets any number of batches run concurrently with exact
        per-batch deltas.
        """
        with self._stats_lock:
            self._stats.merge_dict(context.as_delta())

    def _solve_local(self, query: Query, context: ExecutionContext) -> Result:
        """Answer one query on the calling thread against the local cache.

        Only reachable through :meth:`solve_many`, which validates the query
        first.  Cache lookups, kernel statistics and the result's service
        counters are all recorded into ``context``.
        """
        is_stg = isinstance(query, STGQuery)
        feasible, compiled = self._lookup(query.initiator, query.radius, context)
        if is_stg:
            result: Result = STGSelect(self.graph, self.calendars, self.parameters).solve(
                query, feasible_graph=feasible, compiled_graph=compiled, context=context
            )
        else:
            result = SGSelect(self.graph, self.parameters).solve(
                query, feasible_graph=feasible, compiled_graph=compiled, context=context
            )
        context.record_result(result, is_stg)
        return result

    def solve(self, query: Query, context: Optional[ExecutionContext] = None) -> Result:
        """Answer one query (SGQ or STGQ): a one-query :meth:`solve_many`.

        Routed through the backend, so with ``backend="process"`` even a
        single query lands on the worker owning its initiator (keeping that
        worker's cache hot).
        """
        return self.solve_many([query], context)[0]

    def solve_many(
        self, queries: Iterable[Query], context: Optional[ExecutionContext] = None
    ) -> List[Result]:
        """Answer a batch of independent queries.

        Results are returned in the order of ``queries`` regardless of
        completion order.  Execution is delegated to the configured backend
        (``serial`` solves in order; the sharded backends fan out).

        ``context`` (optional) is the batch's accounting scope: pass a fresh
        :class:`~repro.service.context.ExecutionContext` to read this
        batch's exact stats delta afterwards (``context.as_delta()``); one
        is created internally when omitted.  The context is merged into the
        service totals exactly once when the batch completes — a batch that
        raises merges nothing — and must not be reused for another batch.
        """
        batch: Sequence[Query] = list(queries)
        if not batch:
            return []
        for query in batch:
            self._validate(query)
        ctx = context if context is not None else ExecutionContext()
        results = self._backend.solve_batch(self, batch, ctx)
        self._merge_context(ctx)
        return results

    # ------------------------------------------------------------------
    # the request pipeline behind every front door
    # ------------------------------------------------------------------
    def parse_request(self, payload: Any) -> Query:
        """Admit one decoded request payload: the check every front door runs.

        :func:`~repro.service.codec.query_from_request` applies the field
        rules, then the service rejects what it cannot answer.

        Raises
        ------
        RequestError
            Bad fields, every one named in its ``fields`` map.
        QueryError
            A payload that is not an object, an STGQ without calendars or
            longer than the planning horizon.
        VertexNotFoundError
            An initiator that is not in the graph.
        """
        query = query_from_request(payload)
        self._validate(query)
        return query

    def answer(
        self, payloads: Iterable[Any], context: Optional[ExecutionContext] = None
    ) -> List[Union[Result, ErrorResult]]:
        """Answer decoded request payloads: one outcome per payload, in order.

        A payload that :meth:`parse_request` rejects is answered with an
        :class:`~repro.service.codec.ErrorResult` carrying the reason; the
        admitted rest is solved as one :meth:`solve_many` batch under
        ``context``.  If that solve raises, each admitted payload gets an
        ``ErrorResult`` with the error and nothing is merged into the
        service totals (``context`` is then partial: drop it).  Either way
        one bad payload never fails its batchmates and no error escapes, so
        the JSONL loop and the TCP worker keep serving.
        """
        outcomes: List[Union[Query, ErrorResult]] = []
        for payload in payloads:
            try:
                outcomes.append(self.parse_request(payload))
            except ReproError as exc:
                outcomes.append(ErrorResult(str(exc)))
        queries = [outcome for outcome in outcomes if not isinstance(outcome, ErrorResult)]
        try:
            solved: Iterator[Union[Result, ErrorResult]] = iter(self.solve_many(queries, context))
        except Exception as exc:  # the front doors must keep serving
            logger.exception("a batch of %d queries failed", len(queries))
            solved = itertools.repeat(ErrorResult(str(exc) or type(exc).__name__))
        return [
            outcome if isinstance(outcome, ErrorResult) else next(solved) for outcome in outcomes
        ]

    async def answer_async(
        self, payloads: Iterable[Any], context: Optional[ExecutionContext] = None
    ) -> List[Union[Result, ErrorResult]]:
        """Awaitable :meth:`answer`, run on the event loop's default executor.

        The ``stgq serve --jsonl`` loop, an asyncio front end, overlaps
        reading and writing one batch with answering the next.  With the
        ``process`` backend the solving happens in the child
        processes, outside this interpreter's GIL, so several in-flight
        batches run in parallel.  Give each in-flight batch its own
        ``context`` so their deltas never smear.
        """
        call = functools.partial(self.answer, list(payloads), context)
        return await asyncio.get_running_loop().run_in_executor(None, call)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend threads and worker processes (idempotent)."""
        self._backend.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Copy of the aggregate service counters."""
        with self._stats_lock:
            return ServiceStats(**self._stats.as_dict())  # type: ignore[arg-type]

    def route_report(self) -> Optional[Dict[str, object]]:
        """Rolling routing report from a sharded backend, ``None`` otherwise.

        Sharded backends (process, remote) route every batch through a
        :class:`~repro.service.sharding.ShardMap` or
        :class:`~repro.service.placement.PlacementMap`; this surfaces that
        router's identity (strategy, version) plus its rolling
        :class:`~repro.service.sharding.RouteMetrics` — the numbers behind
        ``stgq stats --json`` and HTTP ``/stats``.  The serial backend does
        not route, hence ``None``.
        """
        reporter = getattr(self._backend, "route_report", None)
        if reporter is None:
            return None
        return reporter()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        info = self.cache_info()
        return (
            f"QueryService(backend={self._backend.name!r}, queries={self._stats.queries}, "
            f"cache={info.size}/{info.max_size}, hit_rate={info.hit_rate:.2f})"
        )
