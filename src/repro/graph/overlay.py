"""Mutable edge overlay over an immutable substrate (live CSR graphs).

:class:`~repro.graph.csr.CSRGraph` is deliberately immutable — its
``indptr``/``indices``/``weights`` arrays live in one mmap'd ``.stgq`` file
shared by a whole worker fleet.  A live deployment still has to follow edge
churn, so :class:`GraphOverlay` layers a small adjacency-dict *diff* on top
of any read-only :class:`~repro.graph.substrate.GraphSubstrate`:

* added (or re-weighted) edges live in ``_added``,
* removed base edges are tombstoned in ``_removed``,
* vertices introduced by added edges live in ``_extra``,
* every mutating call bumps a monotonic ``graph_version`` counter.

Reads merge the diff with the base substrate on the fly, so the overlay
satisfies the full :class:`GraphSubstrate` protocol and can back a
:class:`~repro.service.QueryService` directly.  The intended lifecycle is
the classic LSM shape: mutations accumulate in the overlay while the base
stays mmap'd and shared; when the diff grows large, operators repack
(``stgq pack``) and redeploy via the substrate-reload path (see
``docs/live_graph.md``).

The overlay pickles by value *for the diff only* — the base substrate uses
its own pickling contract (CSR graphs ship as a ``(path, version)``
reference), so starting process-backend children stays cheap.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set

from ..exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from ..types import Vertex, WeightedEdge
from .csr import CSRGraph
from .distance import _generic_bounded_distances, _generic_hop_counts
from .social_graph import SocialGraph
from .substrate import GraphSubstrate

__all__ = ["GraphOverlay"]

INF = float("inf")


class GraphOverlay:
    """A mutable add/remove edge diff over an immutable base substrate.

    Parameters
    ----------
    base:
        Any :class:`GraphSubstrate`.  The base is never mutated; all edits
        live in the overlay.

    Examples
    --------
    >>> base = SocialGraph([(1, 2, 1.0)])
    >>> live = GraphOverlay(base)
    >>> live.add_edge(2, 3, 0.5)
    >>> live.graph_version
    1
    >>> sorted(live.neighbors(2))
    [1, 3]
    >>> base.has_edge(2, 3)
    False
    """

    __slots__ = ("_base", "_added", "_removed", "_extra", "_graph_version")

    def __init__(self, base: GraphSubstrate) -> None:
        self._base = base
        # vertex -> {neighbour: distance}; symmetric, shadows base weights.
        self._added: Dict[Vertex, Dict[Vertex, float]] = {}
        # vertex -> {neighbour}; symmetric tombstones for *base* edges only.
        self._removed: Dict[Vertex, Set[Vertex]] = {}
        # Ordered set of vertices absent from the base (dict for order).
        self._extra: Dict[Vertex, None] = {}
        self._graph_version = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    @property
    def graph_version(self) -> int:
        """Monotonic counter bumped by every mutating call on the overlay."""
        return self._graph_version

    @property
    def base(self) -> GraphSubstrate:
        """The immutable substrate underneath the diff."""
        return self._base

    def add_vertex(self, v: Vertex) -> None:
        """Add ``v`` (no-op if already present in base or overlay)."""
        if v not in self:
            self._extra[v] = None
            self._graph_version += 1

    def add_edge(self, u: Vertex, v: Vertex, distance: float) -> None:
        """Add (or re-weight) the undirected edge ``{u, v}``.

        Same contract as :meth:`SocialGraph.add_edge`: self-loops and
        non-positive/non-finite distances raise :class:`GraphError`.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        dist = float(distance)
        if not dist > 0 or dist != dist or dist == float("inf"):
            raise GraphError(f"edge distance must be positive and finite, got {distance!r}")
        for x in (u, v):
            if x not in self._base and x not in self._extra:
                self._extra[x] = None
        self._added.setdefault(u, {})[v] = dist
        self._added.setdefault(v, {})[u] = dist
        # Re-adding a previously tombstoned base edge revives it.
        self._removed.get(u, set()).discard(v)
        self._removed.get(v, set()).discard(u)
        self._graph_version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raise :class:`EdgeNotFoundError` if absent."""
        in_overlay = u in self._added and v in self._added[u]
        in_base = self._base_has_edge(u, v)
        if not in_overlay and not (in_base and not self._tombstoned(u, v)):
            raise EdgeNotFoundError(u, v)
        if in_overlay:
            del self._added[u][v]
            del self._added[v][u]
        if in_base:
            self._removed.setdefault(u, set()).add(v)
            self._removed.setdefault(v, set()).add(u)
        self._graph_version += 1

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _base_has_edge(self, u: Vertex, v: Vertex) -> bool:
        try:
            return self._base.has_edge(u, v)
        except Exception:
            return False

    def _tombstoned(self, u: Vertex, v: Vertex) -> bool:
        return u in self._removed and v in self._removed[u]

    def _merged_adjacency(self, v: Vertex) -> Dict[Vertex, float]:
        if v not in self:
            raise VertexNotFoundError(v)
        merged: Dict[Vertex, float] = {}
        if v in self._base:
            merged.update(self._base.adjacency(v))
            for dead in self._removed.get(v, ()):
                merged.pop(dead, None)
        merged.update(self._added.get(v, {}))
        return merged

    # ------------------------------------------------------------------
    # GraphSubstrate surface
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._base or v in self._extra

    def __len__(self) -> int:
        return self.vertex_count

    def __iter__(self) -> Iterator[Vertex]:
        yield from self._base
        yield from self._extra

    @property
    def vertex_count(self) -> int:
        return self._base.vertex_count + len(self._extra)

    @property
    def edge_count(self) -> int:
        removed = sum(len(s) for s in self._removed.values()) // 2
        added_new = 0
        seen = set()
        for u, nbrs in self._added.items():
            for v in nbrs:
                fkey = frozenset((u, v))
                if fkey in seen:
                    continue
                seen.add(fkey)
                if not self._base_has_edge(u, v):
                    added_new += 1
        return self._base.edge_count - removed + added_new

    def vertices(self) -> List[Vertex]:
        return list(self)

    def edges(self) -> List[WeightedEdge]:
        result: List[WeightedEdge] = []
        for u, v, d in self._base.edges():
            if self._tombstoned(u, v):
                continue
            shadow = self._added.get(u, {}).get(v)
            result.append((u, v, d if shadow is None else shadow))
        seen = set()
        for u, nbrs in self._added.items():
            for v, d in nbrs.items():
                fkey = frozenset((u, v))
                if fkey in seen:
                    continue
                seen.add(fkey)
                if not self._base_has_edge(u, v):
                    result.append((u, v, d))
        return result

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u in self._added and v in self._added[u]:
            return True
        return self._base_has_edge(u, v) and not self._tombstoned(u, v)

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        return frozenset(self._merged_adjacency(v))

    def adjacency(self, v: Vertex) -> Mapping[Vertex, float]:
        return self._merged_adjacency(v)

    def degree(self, v: Vertex) -> int:
        return len(self._merged_adjacency(v))

    def distance(self, u: Vertex, v: Vertex) -> float:
        shadow = self._added.get(u, {}).get(v)
        if shadow is not None:
            return shadow
        if self._base_has_edge(u, v) and not self._tombstoned(u, v):
            return self._base.distance(u, v)
        raise EdgeNotFoundError(u, v)

    def total_distance(self) -> float:
        return sum(d for _, _, d in self.edges())

    def subgraph(self, vertices) -> SocialGraph:
        """Induced subgraph as a :class:`SocialGraph` (matching CSR behaviour)."""
        keep = [v for v in vertices if v in self]
        keep_set = set(keep)
        sub = SocialGraph(vertices=keep)
        for u in keep:
            for v, d in self._merged_adjacency(u).items():
                if v in keep_set and not sub.has_edge(u, v):
                    sub.add_edge(u, v, d)
        return sub

    # ------------------------------------------------------------------
    # substrate fast paths (dispatched to by repro.graph.distance)
    # ------------------------------------------------------------------
    def _patch_state(self, base: CSRGraph):
        """Dense-id view of overlay-over-CSR for the vectorised walks.

        Base rows keep their row ids ``0..n-1``; overlay-only vertices get
        ``n, n+1, ...`` in ``_extra`` order.  ``dirty_rows`` flags base rows
        whose merged adjacency differs from the raw row slice — because the
        diff dicts are kept symmetric, an *unflagged* row's slice is exactly
        its live adjacency, so whole clean frontiers can ride the base CSR
        arrays untouched.
        """
        import numpy as np

        n = base.vertex_count
        extra_labels = list(self._extra)
        extra_index = {v: n + i for i, v in enumerate(extra_labels)}
        dirty_rows = np.zeros(n, dtype=bool)
        for v in set(self._added) | set(self._removed):
            if v not in extra_index:
                try:
                    dirty_rows[base._row(v)] = True
                except VertexNotFoundError:  # pragma: no cover - defensive
                    pass
        return extra_labels, extra_index, dirty_rows

    def _vertex_id(self, base: CSRGraph, extra_index, label) -> int:
        eid = extra_index.get(label)
        return eid if eid is not None else base._row(label)

    def _vertex_label(self, base: CSRGraph, extra_labels, vid: int):
        n = base.vertex_count
        return base._label(vid) if vid < n else extra_labels[vid - n]

    def bounded_distances(self, source: Vertex, max_edges: int) -> Dict[Vertex, float]:
        """``s``-edge minimum distances, vectorising the CSR base.

        Same contract as :func:`repro.graph.distance.bounded_distances`.
        Each round splits the frontier into *clean* base rows (no touched
        edges — relaxed with one array gather, exactly like
        :meth:`CSRGraph._bounded_rows`) and *dirty* vertices (edited rows
        and overlay-only vertices — patched through
        :meth:`_merged_adjacency`).  Non-CSR bases fall back to the generic
        frontier walk.
        """
        base = self._base
        if not isinstance(base, CSRGraph):  # a CSRGraph means numpy is installed
            return _generic_bounded_distances(self, source, max_edges)
        if source not in self:
            raise VertexNotFoundError(source)
        if max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {max_edges}")
        if not (self._added or self._removed or self._extra):
            return base.bounded_distances(source, max_edges)
        import numpy as np

        extra_labels, extra_index, dirty_rows = self._patch_state(base)
        n = base.vertex_count
        dist = np.full(n + len(extra_labels), INF)
        src_id = self._vertex_id(base, extra_index, source)
        dist[src_id] = 0.0
        order: List[int] = [src_id]
        frontier: List[int] = [src_id]
        for _ in range(max_edges):
            if not frontier:
                break
            fr = np.asarray(frontier, dtype=np.int64)
            is_clean = np.zeros(fr.size, dtype=bool)
            base_mask = fr < n
            is_clean[base_mask] = ~dirty_rows[fr[base_mask]]
            updates: Dict[int, float] = {}
            clean = fr[is_clean]
            if clean.size:
                pos, counts = base._gather_rows(clean)
                if pos.size:
                    targets = base._indices[pos].astype(np.int64, copy=False)
                    cand = np.repeat(dist[clean], counts) + base._weights[pos]
                    uniq, inv = np.unique(targets, return_inverse=True)
                    best = np.full(uniq.size, INF)
                    np.minimum.at(best, inv, cand)
                    improved = best < dist[uniq]
                    for tid, nd in zip(uniq[improved].tolist(), best[improved].tolist()):
                        updates[tid] = nd
            for uid in fr[~is_clean].tolist():
                du = float(dist[uid])
                label = self._vertex_label(base, extra_labels, uid)
                for v, c in self._merged_adjacency(label).items():
                    nd = du + c
                    tid = self._vertex_id(base, extra_index, v)
                    if nd < dist[tid] and nd < updates.get(tid, INF):
                        updates[tid] = nd
            frontier = []
            for tid, nd in updates.items():
                if nd < dist[tid]:
                    if dist[tid] == INF:
                        order.append(tid)
                    dist[tid] = nd
                    frontier.append(tid)
        return {
            self._vertex_label(base, extra_labels, vid): float(dist[vid])
            for vid in order
        }

    def hop_counts(self, source: Vertex, max_edges: Optional[int] = None) -> Dict[Vertex, int]:
        """BFS hop counts, vectorising the CSR base (see bounded_distances)."""
        base = self._base
        if not isinstance(base, CSRGraph):
            return _generic_hop_counts(self, source, max_edges)
        if source not in self:
            raise VertexNotFoundError(source)
        if max_edges is not None and max_edges < 0:
            raise ValueError(f"max_edges must be >= 0, got {max_edges}")
        if not (self._added or self._removed or self._extra):
            return base.hop_counts(source, max_edges)
        import numpy as np

        extra_labels, extra_index, dirty_rows = self._patch_state(base)
        n = base.vertex_count
        seen = np.zeros(n + len(extra_labels), dtype=bool)
        src_id = self._vertex_id(base, extra_index, source)
        seen[src_id] = True
        levels: List[List[int]] = [[src_id]]
        frontier: List[int] = [src_id]
        depth = 0
        while frontier and (max_edges is None or depth < max_edges):
            fr = np.asarray(frontier, dtype=np.int64)
            is_clean = np.zeros(fr.size, dtype=bool)
            base_mask = fr < n
            is_clean[base_mask] = ~dirty_rows[fr[base_mask]]
            fresh: List[int] = []
            clean = fr[is_clean]
            if clean.size:
                pos, _ = base._gather_rows(clean)
                if pos.size:
                    targets = base._indices[pos]
                    new_rows = np.unique(targets[~seen[targets]])
                    if new_rows.size:
                        seen[new_rows] = True
                        fresh.extend(new_rows.tolist())
            for uid in fr[~is_clean].tolist():
                label = self._vertex_label(base, extra_labels, uid)
                for v in self._merged_adjacency(label):
                    tid = self._vertex_id(base, extra_index, v)
                    if not seen[tid]:
                        seen[tid] = True
                        fresh.append(tid)
            if not fresh:
                break
            depth += 1
            levels.append(fresh)
            frontier = fresh
        return {
            self._vertex_label(base, extra_labels, vid): d
            for d, level in enumerate(levels)
            for vid in level
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def overlay_edits(self) -> int:
        """Number of distinct edge entries held by the diff (sizing signal)."""
        added = sum(len(n) for n in self._added.values()) // 2
        removed = sum(len(s) for s in self._removed.values()) // 2
        return added + removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphOverlay(base={self._base!r}, edits={self.overlay_edits}, "
            f"version={self._graph_version})"
        )
