"""Locality-aware routing of queries to executor workers.

The process backend keeps one worker process — and therefore one ego-network
cache — per shard.  Routing every query whose initiator maps to shard *i*
onto worker *i* means an initiator's extracted (and bitset-compiled) ego
network is built exactly once, inside one worker, and every later query from
that initiator finds it hot.  This is the same locality-aware placement
argument made for clustered query processors: work that touches the same
data should land on the same node.

:func:`stable_shard` intentionally avoids the built-in :func:`hash`: Python
randomises string hashing per process (``PYTHONHASHSEED``), and the parent
and its worker processes must agree on the placement of every initiator.

:class:`ShardMap` is the **CRC32 fallback strategy** behind the routing
interface that :class:`~repro.service.placement.PlacementMap` implements for
load-aware deployments: both expose ``version`` (0 here — "no placement"),
``shard_of``, ``replicas_of``, ``partition``, ``load_report``, ``imbalance``
and ``route_report``, so every backend routes through one duck type and a
placement file is a pure deployment decision.

Skew observability is a **rolling metric**, not a log line: every
``partition()`` call feeds a per-map :class:`RouteMetrics` (last/max routed
imbalance, skewed-batch count, cumulative per-shard routed totals) surfaced
through ``QueryService.route_report()``, the worker ``stats`` frame,
``stgq stats --json`` and HTTP ``/stats`` — operators watch a counter
instead of grepping for a once-per-process warning.
"""

from __future__ import annotations

import logging
import threading
import zlib
from typing import Dict, List, Sequence, Tuple, TypeVar

from ..exceptions import QueryError
from ..types import Vertex

__all__ = ["RouteMetrics", "ShardMap", "stable_shard", "IMBALANCE_WARN_THRESHOLD"]

Q = TypeVar("Q")

logger = logging.getLogger(__name__)

#: A routed batch whose hottest shard exceeds this multiple of the mean load
#: counts as *skewed* in :class:`RouteMetrics` (the ROADMAP's ~1.5x skew
#: flag — the point where hash placement stops being good enough and
#: load-aware placement is worth deploying).  Tiny batches (< 2x the shard
#: count) are trivially imbalanced and never measured.
IMBALANCE_WARN_THRESHOLD = 1.5


def stable_shard(vertex: Vertex, n_shards: int) -> int:
    """Map ``vertex`` to a shard id in ``[0, n_shards)``.

    The mapping is deterministic across processes and Python invocations
    (CRC32 of the vertex ``repr``), so a gateway and its workers always
    agree on which worker owns an initiator.  This requires vertex ids with
    *value-based* reprs — ints, strings, tuples thereof (what every dataset
    in this package uses).  Custom vertex objects that keep the default
    identity repr (``<Person object at 0x...>``) would shard the same
    logical initiator inconsistently between runs; give such classes a
    stable ``__repr__`` before using the process backend.
    """
    if n_shards < 1:
        raise QueryError(f"n_shards must be >= 1, got {n_shards}")
    if n_shards == 1:
        return 0
    return zlib.crc32(repr(vertex).encode("utf-8")) % n_shards


class RouteMetrics:
    """Rolling per-map routing statistics (thread-safe).

    One instance lives inside each router (:class:`ShardMap` or
    :class:`~repro.service.placement.PlacementMap`); ``partition()`` feeds
    it on every routed batch.  ``report()`` is the operator surface: how
    many batches routed, how many were skewed past
    :data:`IMBALANCE_WARN_THRESHOLD`, the last and worst measured
    imbalance, and cumulative per-shard routed query counts (the
    "per-worker load" HTTP ``/stats`` exposes).

    Imbalance is only *measured* on batches of at least ``2 * n_shards``
    queries — a single query on a 4-shard map is trivially "4x imbalanced"
    and would poison the maximum — but routed totals accumulate for every
    batch regardless.
    """

    __slots__ = (
        "n_shards",
        "lock",
        "batches",
        "queries",
        "measured_batches",
        "skewed_batches",
        "last_imbalance",
        "max_imbalance",
        "routed",
    )

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self.lock = threading.Lock()
        self.batches = 0
        self.queries = 0
        self.measured_batches = 0
        self.skewed_batches = 0
        self.last_imbalance = 0.0
        self.max_imbalance = 0.0
        self.routed = [0] * n_shards

    def note_batch(self, parts: Dict[int, List[Tuple[int, Q]]], total: int) -> None:
        """Fold one partitioned batch into the rolling totals."""
        measurable = self.n_shards > 1 and total >= 2 * self.n_shards
        ratio = 0.0
        hottest = count = 0
        if measurable:
            hottest, count = max(
                ((shard, len(entries)) for shard, entries in parts.items()),
                key=lambda item: item[1],
            )
            ratio = count / (total / self.n_shards)
        with self.lock:
            self.batches += 1
            self.queries += total
            for shard, entries in parts.items():
                self.routed[shard] += len(entries)
            if measurable:
                self.measured_batches += 1
                self.last_imbalance = ratio
                if ratio > self.max_imbalance:
                    self.max_imbalance = ratio
                if ratio > IMBALANCE_WARN_THRESHOLD:
                    self.skewed_batches += 1
        if measurable and ratio > IMBALANCE_WARN_THRESHOLD:
            # Observability lives in report(); the log line stays at DEBUG
            # so a persistently skewed stream cannot flood the logs.
            logger.debug(
                "shard imbalance %.2fx on a %d-query batch: shard %d holds %d "
                "queries (mean %.1f over %d shards)",
                ratio,
                total,
                hottest,
                count,
                total / self.n_shards,
                self.n_shards,
            )

    def report(self) -> Dict[str, object]:
        """Snapshot of the rolling totals (JSON-safe)."""
        with self.lock:
            return {
                "batches": self.batches,
                "queries": self.queries,
                "measured_batches": self.measured_batches,
                "skewed_batches": self.skewed_batches,
                "last_imbalance": self.last_imbalance,
                "max_imbalance": self.max_imbalance,
                "imbalance_threshold": IMBALANCE_WARN_THRESHOLD,
                "routed": list(self.routed),
            }


class ShardMap:
    """Deterministic CRC32 assignment of initiators to ``n_shards`` workers.

    The zero-configuration fallback router: uniform over initiators, blind
    to load.  ``version`` is always 0 — any real
    :class:`~repro.service.placement.PlacementMap` (version ≥ 1) supersedes
    it, which is how the ``placement_update`` adoption rule knows a pushed
    map always beats the fallback.
    """

    __slots__ = ("n_shards", "version", "_metrics")

    strategy = "crc32"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise QueryError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.version = 0
        self._metrics = RouteMetrics(n_shards)

    def shard_of(self, initiator: Vertex) -> int:
        """Shard id owning ``initiator``'s ego-network cache entries."""
        return stable_shard(initiator, self.n_shards)

    def replicas_of(self, initiator: Vertex) -> Tuple[int, ...]:
        """CRC32 placement never replicates: always one candidate shard."""
        return (stable_shard(initiator, self.n_shards),)

    def partition(self, queries: Sequence[Q]) -> Dict[int, List[Tuple[int, Q]]]:
        """Group ``queries`` by the shard owning their initiator.

        Returns a dict mapping shard id to ``(original_index, query)`` pairs
        in submission order, so callers can reassemble results positionally.
        Only shards that received at least one query appear as keys.  Every
        batch feeds the rolling :class:`RouteMetrics` (see
        :meth:`route_report`).
        """
        parts: Dict[int, List[Tuple[int, Q]]] = {}
        for index, query in enumerate(queries):
            shard = self.shard_of(query.initiator)  # type: ignore[attr-defined]
            parts.setdefault(shard, []).append((index, query))
        self._metrics.note_batch(parts, len(queries))
        return parts

    def load_report(self, queries: Sequence[Q]) -> List[int]:
        """Per-shard query counts for ``queries`` (zeros for idle shards).

        The balance diagnostic behind ``bench_service.py --skew``: CRC32
        placement is uniform over *initiators*, so a Zipfian workload —
        where a few heavy users dominate — can still load shards unevenly.
        A capacity planner reads this to size the worker fleet.
        """
        counts = [0] * self.n_shards
        for query in queries:
            counts[self.shard_of(query.initiator)] += 1  # type: ignore[attr-defined]
        return counts

    def imbalance(self, queries: Sequence[Q]) -> float:
        """Max/mean shard-load ratio (1.0 = perfectly balanced, 0.0 = empty).

        The hottest shard bounds cluster throughput, so this ratio is the
        headline number of the skewed-workload benchmark.
        """
        counts = self.load_report(queries)
        total = sum(counts)
        if not total:
            return 0.0
        mean = total / self.n_shards
        return max(counts) / mean

    def route_report(self) -> Dict[str, object]:
        """Rolling routing metrics plus this map's identity (JSON-safe)."""
        report = {
            "strategy": self.strategy,
            "version": self.version,
            "n_shards": self.n_shards,
            "assigned_egos": 0,
            "replicated_egos": 0,
        }
        report.update(self._metrics.report())
        return report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardMap(n_shards={self.n_shards})"
