"""Radius graph extraction (paper §3.2.1).

SGSelect's first step derives the *feasible graph* ``GF = (VF, EF)`` from the
initiator's social graph: every vertex reachable from ``q`` via a path of at
most ``s`` edges is kept, its adopted social distance is its ``s``-edge
minimum distance ``d^s_{v,q}``, and the edge set is the subgraph induced by
``VF``.  Everything else can never satisfy the social radius constraint and
is discarded before the branch-and-bound search begins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..exceptions import VertexNotFoundError
from ..types import Vertex
from .csr import CSRGraph
from .distance import bounded_distances
from .social_graph import SocialGraph
from .substrate import GraphSubstrate

__all__ = ["FeasibleGraph", "extract_feasible_graph", "extract_query_forms"]


@dataclass(frozen=True)
class FeasibleGraph:
    """The feasible graph ``GF`` plus the adopted social distances.

    Attributes
    ----------
    graph:
        The induced subgraph over the feasible vertices (including ``q``).
    source:
        The initiator ``q``.
    distances:
        Mapping from every feasible vertex to its adopted social distance
        ``d_{v,q} = d^s_{v,q}``; the source maps to ``0.0``.
    radius:
        The social radius constraint ``s`` used for extraction.
    """

    graph: SocialGraph
    source: Vertex
    distances: Mapping[Vertex, float]
    radius: int

    @property
    def candidates(self) -> List[Vertex]:
        """Candidate attendees: feasible vertices excluding the initiator,
        ordered by ascending social distance (ties broken by insertion order).

        This is exactly the access order SGSelect starts from.  The sorted
        list is computed once and cached; callers receive a fresh copy so the
        cache cannot be mutated from outside.
        """
        cached = getattr(self, "_candidates_cache", None)
        if cached is None:
            others = [v for v in self.graph if v != self.source]
            others.sort(key=lambda v: self.distances[v])
            cached = tuple(others)
            # The dataclass is frozen; bypass the guard for the private cache.
            object.__setattr__(self, "_candidates_cache", cached)
        return list(cached)

    def distance(self, v: Vertex) -> float:
        """Adopted social distance ``d_{v,q}`` of a feasible vertex."""
        try:
            return self.distances[v]
        except KeyError:
            raise VertexNotFoundError(v) from None

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """Neighbour set of ``v`` inside the feasible graph."""
        return self.graph.neighbors(v)

    def __contains__(self, v: Vertex) -> bool:
        return v in self.graph

    def __len__(self) -> int:
        return len(self.graph)


def _canonical_order(reached: List[Vertex]) -> List[Vertex]:
    """Substrate-independent feasible-vertex order: ascending vertex id.

    ``bounded_distances`` returns vertices in discovery order, which depends
    on the substrate's adjacency iteration order (edge-insertion for the
    dict graph, sorted rows for CSR).  Sorting by id makes the feasible
    graph — and therefore the candidate tie-breaks, the compiled forms and
    every query result — byte-identical across substrates.  Graphs mixing
    unorderable vertex types keep the (deterministic) discovery order.
    """
    try:
        return sorted(reached)
    except TypeError:
        return reached


def extract_feasible_graph(
    graph: GraphSubstrate, source: Vertex, radius: int
) -> FeasibleGraph:
    """Extract the feasible graph ``GF`` for initiator ``source`` and radius ``radius``.

    Parameters
    ----------
    graph:
        The full social graph ``G`` — any
        :class:`~repro.graph.substrate.GraphSubstrate` (adjacency-dict or
        CSR; the CSR substrate's bounded distances and induced subgraph are
        built straight from its row slices).
    source:
        The activity initiator ``q``; must be a vertex of ``graph``.
    radius:
        The social radius constraint ``s`` (maximum number of edges on the
        path from ``q``).  Must be at least 1.

    Returns
    -------
    FeasibleGraph
        The induced subgraph over ``{v : d^s_{v,q} < inf}`` together with the
        adopted distances.  Feasible vertices are ordered by ascending id,
        so the result is identical whichever substrate backed the graph.

    Notes
    -----
    The paper stresses that the *minimum-edge* path and the *minimum-distance
    path with at most s edges* can differ; the extraction therefore uses the
    bounded Bellman–Ford recurrence from :mod:`repro.graph.distance` rather
    than plain BFS distances.
    """
    feasible, _ = extract_query_forms(graph, source, radius, kernel="reference")
    return feasible


def extract_query_forms(
    graph: GraphSubstrate, source: Vertex, radius: int, kernel: str = "reference"
) -> Tuple[FeasibleGraph, Optional[object]]:
    """Extract every query-time form of the ego network in one pass.

    Returns ``(feasible, compiled)`` — the :class:`FeasibleGraph` always,
    and the :class:`~repro.graph.compiled.CompiledFeasibleGraph` when
    ``kernel`` is not ``"reference"`` (``None`` otherwise) — the exact pair
    a :class:`~repro.service.QueryService` cache entry holds.

    On a CSR substrate the whole pipeline is array-granular: one vectorised
    bounded-Bellman–Ford (:meth:`CSRGraph._bounded_rows`), then a single
    gather of the feasible rows' slices feeds both the induced adjacency
    dict and the dense-id bitmasks — no ``subgraph()`` double-scan, no
    per-vertex ``neighbors()`` rescans in ``CompiledFeasibleGraph``.  Every
    other substrate takes the generic path (``bounded_distances`` →
    ``subgraph`` → compile).  Both lanes produce byte-identical forms; the
    substrate-equivalence suite pins this.
    """
    if source not in graph:
        raise VertexNotFoundError(source)
    if radius < 1:
        raise ValueError(f"radius must be >= 1, got {radius}")
    want_compiled = kernel != "reference"

    if isinstance(graph, CSRGraph):  # only exists when numpy is installed
        return _extract_query_forms_csr(graph, source, radius, want_compiled)

    dist = bounded_distances(graph, source, radius)
    feasible_vertices = _canonical_order(list(dist))
    sub = graph.subgraph(feasible_vertices)
    adopted: Dict[Vertex, float] = {v: dist[v] for v in feasible_vertices}
    feasible = FeasibleGraph(graph=sub, source=source, distances=adopted, radius=radius)
    compiled = None
    if want_compiled:
        from .compiled import compile_feasible_graph

        compiled = compile_feasible_graph(feasible)
    return feasible, compiled


def _extract_query_forms_csr(
    graph: CSRGraph, source: Vertex, radius: int, want_compiled: bool
) -> Tuple[FeasibleGraph, Optional[object]]:
    """CSR fast lane: build both forms from one gather of the feasible rows."""
    import numpy as np

    src_row = graph._row(source)
    order, dist_arr = graph._bounded_rows(src_row, radius)
    # Canonical feasible order is ascending vertex id; labels are sorted, so
    # ascending row order *is* ascending id order on either id scheme.
    rows = np.sort(order)
    labels = graph._labels
    keys = rows if labels is None else labels[rows]
    key_list = keys.tolist()
    adopted: Dict[Vertex, float] = dict(zip(key_list, dist_arr[rows].tolist()))

    # Access order: candidates by ascending adopted distance, ties by
    # ascending id — a stable argsort over the id-ordered candidate rows,
    # matching FeasibleGraph.candidates exactly.
    cand_rows = rows[rows != src_row]
    perm = np.argsort(dist_arr[cand_rows], kind="stable")
    universe_rows = np.concatenate((np.asarray([src_row], dtype=rows.dtype), cand_rows[perm]))
    m = int(universe_rows.size)
    universe_keys = universe_rows if labels is None else labels[universe_rows]
    key_of_uid = universe_keys.tolist()

    # One gather of every feasible row's slice feeds both the dict
    # adjacency and the int bitmasks.  The bitmasks are scattered into a
    # (m, words) uint64 matrix first — one little-endian row per id — and
    # read back as Python ints below.
    pos, counts = graph._gather_rows(universe_rows)
    sub = SocialGraph(vertices=key_list)
    mat = None
    if want_compiled:
        words = max(1, -(-m // 64))
        mat = np.zeros((m, words), dtype=np.uint64)
    if pos.size:
        targets = graph._indices[pos].astype(np.int64, copy=False)
        uid_of_row = np.full(graph._n, -1, dtype=np.int64)
        uid_of_row[universe_rows] = np.arange(m, dtype=np.int64)
        tgt_uids = uid_of_row[targets]
        keep = tgt_uids >= 0
        src_uids = np.repeat(np.arange(m, dtype=np.int64), counts)[keep]
        tgt_uids = tgt_uids[keep]
        src_keys = np.repeat(universe_keys, counts)[keep]
        tgt_keys = targets[keep] if labels is None else labels[targets[keep]]
        dists = graph._weights[pos][keep]
        adjd = sub._adj
        for u, v, d in zip(src_keys.tolist(), tgt_keys.tolist(), dists.tolist()):
            adjd[u][v] = d
        if mat is not None:
            bits = np.left_shift(np.uint64(1), (tgt_uids & 63).astype(np.uint64))
            np.bitwise_or.at(mat, (src_uids, tgt_uids >> 6), bits)

    feasible = FeasibleGraph(graph=sub, source=source, distances=adopted, radius=radius)
    object.__setattr__(feasible, "_candidates_cache", tuple(key_of_uid[1:]))
    compiled = None
    if want_compiled:
        from .compiled import CompiledFeasibleGraph

        raw = np.ascontiguousarray(mat, dtype="<u8").tobytes()
        stride = mat.shape[1] * 8
        adj_ints = tuple(
            int.from_bytes(raw[i * stride : (i + 1) * stride], "little") for i in range(m)
        )
        compiled = CompiledFeasibleGraph.from_parts(
            source,
            tuple(key_of_uid),
            adj_ints,
            tuple(dist_arr[universe_rows].tolist()),
        )
    return feasible, compiled
