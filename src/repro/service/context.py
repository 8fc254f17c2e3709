"""Per-batch execution contexts: scoped stats from the kernels to the wire.

Before this module existed, every observable counter of the service lived
in one service-global :class:`ServiceStats` guarded by a lock.  That shape
has a hidden cost: any caller that needs to know what *one batch* did (the
process backend's parent merge, the TCP worker's ``stats_delta``) had to
snapshot the globals before and after the batch and diff them — which is
only exact if nothing else runs in between, so batches serialized at every
point that needed an exact delta.  PR 3's known limitation ("a worker
serializes batch frames across connections") was exactly this.

:class:`ExecutionContext` inverts the flow.  One context is created per
batch and threaded down through every layer that does accountable work:

* the **solvers** record each solve's kernel :class:`SearchStats` into it
  (via the :class:`~repro.core.context.SearchContext` base the core
  defines — the core never imports the service);
* the **feasible-graph cache** records hits and misses into it;
* the **executor backends** record per-query service counters into it
  (``serial``) or merge worker-produced deltas into it
  (``process``/``remote``) — no global snapshots, no diffing;
* the **service** merges the completed context into its lifetime totals
  exactly once, atomically, when the batch finishes (a failed batch merges
  nothing, so aggregate stats stay all-or-nothing on every backend);
* the **wire** ships ``context.as_delta()`` as the batch's ``stats_delta``
  and, opt-in, the merged kernel stats — so a response can carry the exact
  cost of producing it, end to end.

Because a context is private to its batch until the final merge, batches
never contend on stats state and a worker can interleave batches from any
number of gateway connections while every delta stays exact.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict

from ..core.context import SearchContext

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .query_service import Result

__all__ = ["ExecutionContext", "ServiceStats"]


@dataclass
class ServiceStats:
    """Aggregate counters the service exposes for observability.

    ``solve_seconds`` sums the wall-clock time spent inside the solvers
    (not queueing), so ``queries / solve_seconds`` is the per-worker solve
    rate while the ``solve_many`` wall-clock gives end-to-end throughput.

    Counters are accumulated per batch in an :class:`ExecutionContext` and
    merged into the service when the batch completes, so the aggregate view
    is identical whichever backend answered the queries.
    """

    queries: int = 0
    sg_queries: int = 0
    stg_queries: int = 0
    feasible: int = 0
    infeasible: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    solve_seconds: float = 0.0
    nodes_expanded: int = 0
    mutations: int = 0
    invalidations: int = 0

    @property
    def invalidations_per_mutation(self) -> float:
        """Average cache entries evicted per applied mutation (0.0 when none).

        The live-graph health signal: targeted invalidation keeps this far
        below the cache size, whereas a full nuke per mutation would pin it
        at the (pre-mutation) entry count.
        """
        return self.invalidations / self.mutations if self.mutations else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Return the counters as a plain dict in field order (for CSV/JSON reporting)."""
        values = vars(self)
        return {name: values[name] for name, _ in _SERVICE_STATS_FIELDS}

    def merge_dict(self, delta: Dict[str, float]) -> None:
        """Accumulate a counter delta (as produced by ``as_dict``).

        Each value is cast to its field's type (``int`` counters, ``float``
        seconds), so a delta that crossed the wire as JSON merges exactly.
        """
        values = vars(self)
        for name, cast in _SERVICE_STATS_FIELDS:
            values[name] += cast(delta.get(name, 0))


#: ``(name, type)`` per counter in declaration order — the one list
#: ``as_dict`` and ``merge_dict`` walk.  The type is the default's (``int``
#: or ``float``), which is the cast ``merge_dict`` applies.
_SERVICE_STATS_FIELDS = tuple((f.name, type(f.default)) for f in fields(ServiceStats))


class ExecutionContext(SearchContext):
    """Accounting scope for one batch (or one standalone solve).

    Extends the core's :class:`SearchContext` (merged kernel statistics,
    recorded by the solvers themselves) with the service-level counters —
    query counts, feasibility split, cache hits/misses — that previously
    lived on the service object.  Recording is lock-guarded, so a context
    shared between threads stays consistent; the in-tree backends record
    into each batch context from one thread at a time.

    Lifecycle: ``QueryService.solve_many`` creates one per batch (or
    accepts a caller-provided one, which is how the TCP worker reads exact
    per-batch deltas without serializing batches), every layer records into
    it while the batch runs, and the service merges ``as_delta()`` into its
    lifetime totals once the batch completes.  A context is single-use:
    merge it once, then drop it.
    """

    def __init__(self) -> None:
        super().__init__()
        self._service_lock = threading.Lock()
        self._delta = ServiceStats()

    def record_result(self, result: "Result", is_stg: bool) -> None:
        """Fold one solved query's service counters into this context."""
        with self._service_lock:
            self._delta.queries += 1
            if is_stg:
                self._delta.stg_queries += 1
            else:
                self._delta.sg_queries += 1
            if result.feasible:
                self._delta.feasible += 1
            else:
                self._delta.infeasible += 1
            self._delta.solve_seconds += result.stats.elapsed_seconds
            self._delta.nodes_expanded += result.stats.nodes_expanded

    def record_cache(self, hit: bool) -> None:
        """Count one feasible-graph cache lookup (hit or miss)."""
        with self._service_lock:
            if hit:
                self._delta.cache_hits += 1
            else:
                self._delta.cache_misses += 1

    def merge_delta(self, delta: Dict[str, float]) -> None:
        """Fold a worker-produced counter delta into this context.

        The sharded backends (``process``/``remote``) run each shard's
        slice inside a worker that keeps its own context; the worker ships
        that context's ``as_delta()`` back and the parent folds it in here.
        """
        with self._service_lock:
            self._delta.merge_dict(delta)

    def as_delta(self) -> Dict[str, float]:
        """This context's service counters as a plain, JSON-safe dict."""
        with self._service_lock:
            return self._delta.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._service_lock:
            return (
                f"ExecutionContext(queries={self._delta.queries}, "
                f"cache_hits={self._delta.cache_hits}, "
                f"cache_misses={self._delta.cache_misses}, solves={self.solves})"
            )
