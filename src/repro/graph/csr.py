"""Out-of-core CSR graph substrate backed by a single ``.stgq`` file.

:class:`CSRGraph` re-encodes the adjacency-dict :class:`SocialGraph` into
the classic compressed-sparse-row layout — ``indptr`` (``n + 1`` row
offsets), ``indices`` (neighbour rows, sorted within each row) and
``weights`` (social distances), one entry per edge direction — tuned to the
only access pattern the query algorithms have: "give me the neighbourhood
of ``v`` with its distances".  Rows are ordered by ascending vertex id, so
a row slice *is* the sorted neighbour list and membership tests are binary
searches.

The payoff is operational, not just asymptotic: the three arrays persist
into one binary ``.stgq`` file (magic + JSON header + 64-byte-aligned raw
array bytes) that workers open with ``np.memmap(..., mode="r")``.  N
process or remote workers then share a single page-cache copy of the
adjacency, and shipping a graph over pickle (the state a process-backend
child boots from) degenerates to shipping *path + version hash* —
see :meth:`CSRGraph.__reduce__`.

Requires numpy, imported on first use: importing this module does not load
it, and :func:`csr_available` asks whether it is installed without
importing it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import struct
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Union

from ..exceptions import EdgeNotFoundError, GraphError, VertexNotFoundError
from ..types import Vertex, WeightedEdge
from .social_graph import SocialGraph
from .substrate import GraphSubstrate

__all__ = [
    "CSRGraph",
    "csr_available",
    "pack_graph",
    "load_stgq",
    "inspect_stgq",
    "STGQ_MAGIC",
    "STGQ_FORMAT",
    "STGQ_FORMAT_QUANTIZED",
]

PathLike = Union[str, Path]

INF = float("inf")

#: Leading magic bytes of a ``.stgq`` substrate file.
STGQ_MAGIC = b"STGQCSR1"

#: On-disk format revision (bumped on incompatible layout changes).
STGQ_FORMAT = 1

#: Format revision of weight-quantised files (``stgq pack --quantize``):
#: the ``weights`` array is stored as int32 against a ``weight_scale``
#: header field instead of float64, halving the dominant array on disk.
#: Plain files keep writing format 1, so older readers only reject files
#: that actually use the new encoding.
STGQ_FORMAT_QUANTIZED = 2

_SUPPORTED_FORMATS = (STGQ_FORMAT, STGQ_FORMAT_QUANTIZED)

#: Quantisation grid: weights map to ``round(w / scale)`` with
#: ``scale = max_weight / _QUANT_MAX``, so the largest weight uses the full
#: int32 range and the worst-case relative error is ~2**-31.
_QUANT_MAX = 2**31 - 1

#: Array payloads start on this alignment so memory-mapped loads are
#: page/vector friendly.
_ALIGN = 64

_HEADER_LEN = struct.Struct("<I")

#: Upper bound on the JSON header; a corrupt length prefix must not make
#: a loader allocate gigabytes.
_MAX_HEADER_BYTES = 1 << 20


def csr_available() -> bool:
    """True when the CSR substrate can be used (numpy installed)."""
    return importlib.util.find_spec("numpy") is not None


def _numpy():
    """numpy (an optional dependency, the [speed] extra), imported on first use."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
        raise GraphError(
            "the CSR graph substrate requires numpy; install the [speed] extra"
        ) from None
    return numpy


def _is_int_id(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


class CSRGraph:
    """Immutable CSR adjacency over integer vertex ids.

    Implements the same read surface as :class:`SocialGraph` (the
    :class:`~repro.graph.substrate.GraphSubstrate` protocol) plus fast-path
    ``bounded_distances``/``hop_counts`` methods the generic helpers in
    :mod:`repro.graph.distance` dispatch to.

    Construction goes through the classmethods — :meth:`from_social_graph`,
    :meth:`from_edge_arrays` or :func:`load_stgq`; the constructor only
    validates pre-built arrays.

    Parameters
    ----------
    indptr, indices, weights:
        CSR arrays: ``indptr`` has ``n + 1`` entries; ``indices[indptr[r]:
        indptr[r + 1]]`` are the neighbour *rows* of row ``r`` in ascending
        order, ``weights`` the matching distances.  Every undirected edge
        appears once per direction.
    labels:
        Optional sorted int64 array mapping row -> vertex id.  ``None``
        means identity ids ``0..n-1`` (the common case for generated
        datasets), which loads without any Python-side id table.
    path, version:
        Set by :func:`load_stgq`/:meth:`save`: the backing ``.stgq`` file
        and its content hash.  A path-backed graph pickles as *path +
        version* instead of array payloads.
    """

    __slots__ = ("_indptr", "_indices", "_weights", "_labels", "_n", "_path", "_version")

    def __init__(
        self,
        indptr,
        indices,
        weights,
        labels=None,
        path: Optional[str] = None,
        version: Optional[str] = None,
    ) -> None:
        _numpy()
        if len(indptr) < 1:
            raise GraphError("indptr must have at least one entry")
        n = len(indptr) - 1
        if len(indices) != len(weights):
            raise GraphError(
                f"indices ({len(indices)}) and weights ({len(weights)}) disagree"
            )
        if int(indptr[0]) != 0 or int(indptr[-1]) != len(indices):
            raise GraphError("indptr does not span the indices array")
        if labels is not None and len(labels) != n:
            raise GraphError(f"labels has {len(labels)} entries for {n} rows")
        self._indptr = indptr
        self._indices = indices
        self._weights = weights
        self._labels = labels
        self._n = n
        self._path = path
        self._version = version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_arrays(cls, n: int, u, v, w, labels=None) -> "CSRGraph":
        """Build from undirected edge arrays of *row* endpoints.

        ``u``/``v``/``w`` list every undirected edge exactly once (row ids
        in ``[0, n)``); both directions are materialised here.  Self-loops,
        duplicate edges and non-positive/non-finite weights are rejected
        with :class:`GraphError`, matching :meth:`SocialGraph.add_edge`.
        """
        np = _numpy()
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (len(u) == len(v) == len(w)):
            raise GraphError("edge arrays must have equal length")
        if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
            raise GraphError(f"edge endpoint out of range for {n} vertices")
        if np.any(u == v):
            raise GraphError("self-loops are not allowed")
        if len(w) and not (np.all(w > 0) and np.all(np.isfinite(w))):
            raise GraphError("edge distance must be positive and finite")
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        codes = lo * np.int64(n) + hi
        if len(np.unique(codes)) != len(codes):
            raise GraphError("duplicate edges in edge arrays")
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        www = np.concatenate([w, w])
        order = np.lexsort((dst, src))
        src, dst, www = src[order], dst[order], www[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        if len(src):
            np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        index_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        label_array = None
        if labels is not None:
            label_array = np.asarray(labels, dtype=np.int64)
            if len(label_array) > 1 and np.any(np.diff(label_array) <= 0):
                raise GraphError("labels must be strictly increasing")
            if np.array_equal(label_array, np.arange(n, dtype=np.int64)):
                label_array = None  # identity ids need no table
        return cls(indptr, dst.astype(index_dtype), www, label_array)

    @classmethod
    def from_social_graph(cls, graph: SocialGraph) -> "CSRGraph":
        """Re-encode an adjacency-dict graph (integer vertex ids required).

        Rows are ordered by ascending vertex id — the canonical substrate
        order the feasible-graph extraction also uses, which is what makes
        dict and CSR results byte-identical.
        """
        np = _numpy()
        if isinstance(graph, CSRGraph):
            return graph
        ids = graph.vertices()
        for vid in ids:
            if not _is_int_id(vid):
                raise GraphError(
                    f"CSR substrate requires integer vertex ids, got {vid!r}"
                )
        ids.sort()
        n = len(ids)
        row_of = {vid: row for row, vid in enumerate(ids)}
        edge_list = graph.edges()
        u = np.fromiter((row_of[a] for a, _, _ in edge_list), dtype=np.int64, count=len(edge_list))
        v = np.fromiter((row_of[b] for _, b, _ in edge_list), dtype=np.int64, count=len(edge_list))
        w = np.fromiter((d for _, _, d in edge_list), dtype=np.float64, count=len(edge_list))
        return cls.from_edge_arrays(n, u, v, w, labels=ids)

    # ------------------------------------------------------------------
    # id <-> row mapping
    # ------------------------------------------------------------------
    def _row(self, v: Vertex) -> int:
        if not _is_int_id(v):
            raise VertexNotFoundError(v)
        if self._labels is None:
            if 0 <= v < self._n:
                return v
            raise VertexNotFoundError(v)
        i = int(_numpy().searchsorted(self._labels, v))
        if i < self._n and int(self._labels[i]) == v:
            return i
        raise VertexNotFoundError(v)

    def _label(self, row: int) -> int:
        return row if self._labels is None else int(self._labels[row])

    @property
    def identity_ids(self) -> bool:
        """True when vertex ids are exactly ``0..n-1`` (no id table needed)."""
        return self._labels is None

    # ------------------------------------------------------------------
    # GraphSubstrate surface
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        try:
            self._row(v)
        except VertexNotFoundError:
            return False
        return True

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[Vertex]:
        if self._labels is None:
            return iter(range(self._n))
        return iter(int(x) for x in self._labels)

    @property
    def vertex_count(self) -> int:
        """Number of vertices."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._indices) // 2

    @property
    def nbytes(self) -> int:
        """Total bytes of the CSR arrays (the cost one full copy would pay)."""
        total = self._indptr.nbytes + self._indices.nbytes + self._weights.nbytes
        if self._labels is not None:
            total += self._labels.nbytes
        return total

    @property
    def path(self) -> Optional[str]:
        """Backing ``.stgq`` file, when this graph was loaded from/saved to one."""
        return self._path

    @property
    def version(self) -> str:
        """Content hash of the substrate (16 hex chars); computed lazily."""
        if self._version is None:
            self._version = _compute_version(
                self._indptr, self._indices, self._weights, self._labels
            )
        return self._version

    def vertices(self) -> List[Vertex]:
        """All vertex ids in ascending order (the substrate's row order)."""
        if self._labels is None:
            return list(range(self._n))
        return self._labels.tolist()

    def edges(self) -> List[WeightedEdge]:
        """All edges as ``(u, v, distance)`` triples (each edge once)."""
        result: List[WeightedEdge] = []
        indptr, indices, weights = self._indptr, self._indices, self._weights
        for row in range(self._n):
            start, end = int(indptr[row]), int(indptr[row + 1])
            for col, dist in zip(indices[start:end].tolist(), weights[start:end].tolist()):
                if col > row:
                    result.append((self._label(row), self._label(col), dist))
        return result

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        try:
            self._find_edge(u, v)
        except (EdgeNotFoundError, VertexNotFoundError):
            return False
        return True

    def _find_edge(self, u: Vertex, v: Vertex) -> int:
        try:
            ru, rv = self._row(u), self._row(v)
        except VertexNotFoundError:
            raise EdgeNotFoundError(u, v) from None
        start, end = int(self._indptr[ru]), int(self._indptr[ru + 1])
        # Rows are sorted, so edge membership is a binary search.
        pos = start + int(_numpy().searchsorted(self._indices[start:end], rv))
        if pos < end and int(self._indices[pos]) == rv:
            return pos
        raise EdgeNotFoundError(u, v)

    def neighbors(self, v: Vertex) -> FrozenSet[Vertex]:
        """Return the neighbour set of ``v`` as a ``frozenset``."""
        row = self._row(v)
        start, end = int(self._indptr[row]), int(self._indptr[row + 1])
        cols = self._indices[start:end]
        if self._labels is None:
            return frozenset(cols.tolist())
        return frozenset(self._labels[cols].tolist())

    def adjacency(self, v: Vertex) -> Mapping[Vertex, float]:
        """Return the neighbour -> distance mapping for ``v``."""
        row = self._row(v)
        start, end = int(self._indptr[row]), int(self._indptr[row + 1])
        cols = self._indices[start:end]
        if self._labels is not None:
            cols = self._labels[cols]
        return dict(zip(cols.tolist(), self._weights[start:end].tolist()))

    def degree(self, v: Vertex) -> int:
        """Return the number of neighbours of ``v``."""
        row = self._row(v)
        return int(self._indptr[row + 1] - self._indptr[row])

    def distance(self, u: Vertex, v: Vertex) -> float:
        """Return the social distance of the edge ``{u, v}``."""
        return float(self._weights[self._find_edge(u, v)])

    def total_distance(self) -> float:
        """Return the sum of distances over all edges."""
        return float(self._weights.sum()) / 2.0

    def subgraph(self, vertices) -> SocialGraph:
        """Induced subgraph over ``vertices``, materialised as a
        :class:`SocialGraph` built straight from the row slices.

        The feasible graphs the solvers search are tiny ego networks, so
        the induced subgraph is always worth materialising as a dict graph
        — the compiled/packed kernel forms derive from it unchanged.
        Vertices not present in the substrate are ignored, matching
        :meth:`SocialGraph.subgraph`.

        One vectorised gather pulls every kept row's slice at once; because
        the CSR stores both directions of each undirected edge, filling the
        adjacency dict per *directed* kept edge lands the symmetric dict a
        pairwise ``add_edge`` loop would build, minus its per-edge
        ``has_edge`` scans and version bumps.
        """
        keep = [v for v in vertices if v in self]
        sub = SocialGraph(vertices=keep)
        if not keep:
            return sub
        np = _numpy()
        keys = np.asarray(keep, dtype=np.int64)
        if self._labels is None:
            rows = keys
        else:
            rows = np.searchsorted(self._labels, keys)
        in_keep = np.zeros(self._n, dtype=bool)
        in_keep[rows] = True
        pos, counts = self._gather_rows(rows)
        if pos.size == 0:
            return sub
        targets = self._indices[pos]
        mask = in_keep[targets]
        srcs = np.repeat(keys, counts)[mask]
        tgt_rows = targets[mask].astype(np.int64, copy=False)
        tgts = tgt_rows if self._labels is None else self._labels[tgt_rows]
        dists = self._weights[pos][mask]
        adj = sub._adj
        for u, v, d in zip(srcs.tolist(), tgts.tolist(), dists.tolist()):
            adj[u][v] = d
        return sub

    def to_social_graph(self) -> SocialGraph:
        """Materialise the whole substrate as an adjacency-dict graph."""
        return self.subgraph(self.vertices())

    # ------------------------------------------------------------------
    # substrate fast paths (dispatched to by repro.graph.distance)
    # ------------------------------------------------------------------
    def _gather_rows(self, rows):
        """Concatenate the neighbour slices of ``rows`` in one gather.

        Returns ``(pos, counts)`` where ``indices[pos]`` (and
        ``weights[pos]``) is the concatenation of every row's slice in row
        order and ``counts[i]`` is the slice length of ``rows[i]``.  The
        ``np.repeat``-of-offsets + ``arange`` construction replaces the
        per-frontier-vertex ``.tolist()`` / ``int(indptr[...])`` loops the
        first CSR cut paid on every hot path.
        """
        np = _numpy()
        indptr = self._indptr
        starts = indptr[rows]
        counts = indptr[rows + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64), counts
        cum = np.cumsum(counts)
        pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (cum - counts), counts)
        return pos, counts

    def _bounded_rows(self, src_row: int, max_edges: int):
        """Array-frontier Bellman–Ford over *rows*.

        Returns ``(order, dist)``: ``order`` is an int64 array of every row
        reached within ``max_edges`` edges in deterministic discovery order
        (source first, then per level in ascending row id), ``dist`` a
        dense float64 array over all ``n`` rows (``inf`` = unreached).  The
        whole frontier is relaxed at once — gather every frontier row's
        slice, scatter candidate distances with ``np.minimum.at`` — so a
        level costs a handful of numpy calls instead of a Python loop over
        frontier vertices and their edges.

        Equivalence with the scalar recurrence: a round's final
        ``dist[v]`` is the min over the same candidate set either way, and
        the next frontier is exactly the rows whose distance strictly
        improved, so the fixpoint (and the reached set per level) is
        identical; only the *within-level* enumeration order differs, and
        every consumer orders the reached set canonically anyway.
        """
        np = _numpy()
        indices, weights = self._indices, self._weights
        dist = np.full(self._n, INF)
        dist[src_row] = 0.0
        frontier = np.array([src_row], dtype=np.int64)
        chunks = [frontier]
        for _ in range(max_edges):
            pos, counts = self._gather_rows(frontier)
            if pos.size == 0:
                break
            targets = indices[pos].astype(np.int64, copy=False)
            cand = np.repeat(dist[frontier], counts) + weights[pos]
            uniq = np.unique(targets)
            before = dist[uniq].copy()
            np.minimum.at(dist, targets, cand)
            improved = dist[uniq] < before
            if not improved.any():
                break
            frontier = uniq[improved]
            fresh = frontier[np.isinf(before[improved])]
            if fresh.size:
                chunks.append(fresh)
        order = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        return order, dist

    def bounded_distances(self, source: Vertex, max_edges: int) -> Dict[Vertex, float]:
        """``s``-edge minimum distances from ``source`` over the row slices.

        Same contract as :func:`repro.graph.distance.bounded_distances`:
        only vertices reachable within ``max_edges`` edges appear, in
        deterministic discovery order.  Vectorised frontier expansion (see
        :meth:`_bounded_rows`); the dense distance array costs one
        ``np.full(n)`` per call, cheap even at 10⁶ rows next to the
        per-edge work it removes.
        """
        src_row = self._row(source)
        if max_edges < 1:
            raise ValueError(f"max_edges must be >= 1, got {max_edges}")
        order, dist = self._bounded_rows(src_row, max_edges)
        dvals = dist[order]
        keys = order if self._labels is None else self._labels[order]
        return dict(zip(keys.tolist(), dvals.tolist()))

    def hop_counts(self, source: Vertex, max_edges: Optional[int] = None) -> Dict[Vertex, int]:
        """BFS hop counts from ``source`` (reached vertices only).

        Vectorised level-synchronous BFS: one gather per level, a dense
        ``seen`` bool array instead of per-vertex dict probes.
        """
        src_row = self._row(source)
        if max_edges is not None and max_edges < 0:
            raise ValueError(f"max_edges must be >= 0, got {max_edges}")
        np = _numpy()
        indices = self._indices
        seen = np.zeros(self._n, dtype=bool)
        seen[src_row] = True
        frontier = np.array([src_row], dtype=np.int64)
        levels = [frontier]
        depth = 0
        while frontier.size and (max_edges is None or depth < max_edges):
            pos, _ = self._gather_rows(frontier)
            if pos.size == 0:
                break
            targets = indices[pos]
            fresh = np.unique(targets[~seen[targets]]).astype(np.int64, copy=False)
            if fresh.size == 0:
                break
            seen[fresh] = True
            depth += 1
            levels.append(fresh)
            frontier = fresh
        labels = self._labels
        hops: Dict[int, int] = {}
        for d, level in enumerate(levels):
            keys = level if labels is None else labels[level]
            for v in keys.tolist():
                hops[v] = d
        return hops

    # ------------------------------------------------------------------
    # persistence & pickling
    # ------------------------------------------------------------------
    def save(self, path: PathLike, quantize: bool = False) -> str:
        """Write the substrate to ``path`` (``.stgq`` format); returns the
        version hash.  The instance becomes path-backed: subsequent pickles
        ship ``(path, version)`` instead of the arrays.

        ``quantize=True`` stores the weights as int32 against a header
        scale factor (format revision ``STGQ_FORMAT_QUANTIZED``), halving
        the dominant on-disk array.  The returned version hashes the
        *dequantised* content — what a loader reconstructs — so it will not
        match this instance's full-precision arrays; the instance therefore
        stays unbound (not path-backed) and callers wanting the file-backed
        graph reload it (see :func:`pack_graph`)."""
        version = _write_stgq(self, path, quantize=quantize)
        if not quantize:
            self._path = str(path)
            self._version = version
        return version

    def __reduce__(self):
        if self._path is not None:
            # Ship path + version, not data: the receiving process opens the
            # file memory-mapped and shares the sender's page cache.
            return (_load_verified, (self._path, self.version))
        np = _numpy()
        labels = None if self._labels is None else np.ascontiguousarray(self._labels)
        return (
            CSRGraph,
            (
                np.ascontiguousarray(self._indptr),
                np.ascontiguousarray(self._indices),
                np.ascontiguousarray(self._weights),
                labels,
            ),
        )

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (CSRGraph, SocialGraph)):
            return NotImplemented
        mine = self.vertices()
        if set(mine) != set(other.vertices()):
            return False
        return all(dict(self.adjacency(v)) == dict(other.adjacency(v)) for v in mine)

    __hash__ = None  # mutable-graph convention shared with SocialGraph

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = f", path={self._path!r}" if self._path else ""
        return f"CSRGraph(vertices={self._n}, edges={self.edge_count}{backing})"


# ----------------------------------------------------------------------
# .stgq file format
# ----------------------------------------------------------------------
def _compute_version(indptr, indices, weights, labels) -> str:
    np = _numpy()
    digest = hashlib.sha256()
    digest.update(STGQ_MAGIC)
    arrays = [indptr, indices, weights] + ([labels] if labels is not None else [])
    for arr in arrays:
        digest.update(arr.dtype.str.encode("ascii"))
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()[:16]


def _array_table(graph: CSRGraph) -> "Dict[str, object]":
    table = {
        "indptr": graph._indptr,
        "indices": graph._indices,
        "weights": graph._weights,
    }
    if graph._labels is not None:
        table["labels"] = graph._labels
    return table


def _quantize_weights(weights):
    """int32 grid + scale for ``weights``; ``(quantised, scale)``.

    The grid pins the largest weight to the full int32 range, so relative
    error is bounded by ~2**-31 — far below anything the solvers' float64
    distance sums can surface.  An empty or all-zero array quantises with
    scale 1.0 (nothing to preserve).
    """
    np = _numpy()
    dense = np.ascontiguousarray(weights, dtype=np.float64)
    peak = float(dense.max()) if len(dense) else 0.0
    scale = peak / _QUANT_MAX if peak > 0 else 1.0
    return np.round(dense / scale).astype(np.int32), scale


def _write_stgq(graph: CSRGraph, path: PathLike, quantize: bool = False) -> str:
    np = _numpy()
    arrays = _array_table(graph)
    extra = {}
    if quantize:
        quantised, scale = _quantize_weights(arrays["weights"])
        arrays["weights"] = quantised
        extra["weight_scale"] = scale
        # The version must hash what a loader reconstructs (the dequantised
        # weights), not the full-precision originals — that keeps
        # ``verify=True``, the pickle-by-reference version pin and a
        # re-save of the loaded graph all self-consistent.
        version = _compute_version(
            graph._indptr,
            graph._indices,
            quantised.astype(np.float64) * scale,
            graph._labels,
        )
    else:
        version = graph.version

    def _layout(header_block: int):
        offset = header_block
        meta = {}
        for name, arr in arrays.items():
            offset = -(-offset // _ALIGN) * _ALIGN
            meta[name] = {"dtype": arr.dtype.str, "shape": [len(arr)], "offset": offset}
            offset += arr.nbytes
        header = {
            "format": STGQ_FORMAT_QUANTIZED if quantize else STGQ_FORMAT,
            "n": graph.vertex_count,
            "m": graph.edge_count,
            "version": version,
            "arrays": meta,
            **extra,
        }
        return json.dumps(header, sort_keys=True).encode("utf-8")

    # The header records absolute array offsets, which depend on the header
    # block's own size: grow the block until the JSON (plus prefix) fits.
    block = 1024
    body = _layout(block)
    while len(body) + len(STGQ_MAGIC) + _HEADER_LEN.size > block:
        block *= 2
        body = _layout(block)

    offsets = json.loads(body)["arrays"]
    with open(path, "wb") as fh:
        fh.write(STGQ_MAGIC)
        fh.write(_HEADER_LEN.pack(len(body)))
        fh.write(body)
        for name, arr in arrays.items():
            fh.seek(offsets[name]["offset"])  # gap bytes read back as zeros
            fh.write(np.ascontiguousarray(arr).tobytes())
    return version


def _read_header(path: PathLike) -> Dict:
    try:
        with open(path, "rb") as fh:
            magic = fh.read(len(STGQ_MAGIC))
            if magic != STGQ_MAGIC:
                raise GraphError(f"{path}: not a .stgq substrate file (bad magic)")
            raw_len = fh.read(_HEADER_LEN.size)
            if len(raw_len) != _HEADER_LEN.size:
                raise GraphError(f"{path}: truncated header")
            (length,) = _HEADER_LEN.unpack(raw_len)
            if length > _MAX_HEADER_BYTES:
                raise GraphError(f"{path}: header length {length} exceeds {_MAX_HEADER_BYTES}")
            body = fh.read(length)
            if len(body) != length:
                raise GraphError(f"{path}: truncated header")
    except OSError as exc:
        raise GraphError(f"cannot read substrate file {path}: {exc}") from exc
    try:
        header = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphError(f"{path}: malformed substrate header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") not in _SUPPORTED_FORMATS:
        supported = "/".join(str(f) for f in _SUPPORTED_FORMATS)
        raise GraphError(
            f"{path}: unsupported substrate format {header.get('format')!r} "
            f"(this build reads formats {supported})"
        )
    return header


def load_stgq(path: PathLike, mmap: bool = True, verify: bool = False) -> CSRGraph:
    """Load a ``.stgq`` substrate file.

    Parameters
    ----------
    mmap:
        Open the arrays with ``np.memmap(mode="r")`` (the default) so
        concurrent workers share one page-cache copy; ``False`` reads them
        into private memory instead.
    verify:
        Recompute the content hash and compare it to the header's version
        (guards against torn writes; costs one pass over the file).
    """
    np = _numpy()
    header = _read_header(path)
    file_bytes = os.path.getsize(path)
    arrays = {}
    try:
        meta_table = header["arrays"]
        for name in ("indptr", "indices", "weights", "labels"):
            meta = meta_table.get(name)
            if meta is None:
                if name == "labels":
                    continue
                raise GraphError(f"{path}: substrate header missing array {name!r}")
            dtype = np.dtype(meta["dtype"])
            (count,) = meta["shape"]
            offset = int(meta["offset"])
            if count == 0:
                # memmap rejects zero-length maps, and a zero-count array's
                # aligned offset may sit at (or past) EOF — nothing to read.
                arrays[name] = np.empty(0, dtype=dtype)
                continue
            if offset + count * dtype.itemsize > file_bytes:
                raise GraphError(f"{path}: truncated substrate file (array {name!r})")
            if mmap:
                arrays[name] = np.memmap(path, dtype=dtype, mode="r", offset=offset, shape=(count,))
            else:
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    arrays[name] = np.fromfile(fh, dtype=dtype, count=count)
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"{path}: malformed substrate header: {exc}") from exc
    if header.get("format") == STGQ_FORMAT_QUANTIZED:
        # Dequantise eagerly: the float64 weights materialise privately per
        # process (indptr/indices stay memory-mapped and shared), trading a
        # little resident memory for the halved file/transfer size.
        try:
            scale = float(header.get("weight_scale", 1.0))
        except (TypeError, ValueError) as exc:
            raise GraphError(f"{path}: malformed weight_scale: {exc}") from exc
        arrays["weights"] = arrays["weights"].astype(np.float64) * scale
    graph = CSRGraph(
        arrays["indptr"],
        arrays["indices"],
        arrays["weights"],
        labels=arrays.get("labels"),
        path=str(path),
        version=str(header.get("version")),
    )
    if verify:
        actual = _compute_version(
            graph._indptr, graph._indices, graph._weights, graph._labels
        )
        if actual != graph.version:
            raise GraphError(
                f"{path}: substrate content hash {actual} does not match "
                f"header version {graph.version}"
            )
    return graph


def _load_verified(path: str, version: Optional[str]) -> CSRGraph:
    """Unpickle target for path-backed graphs: open the file and pin the version.

    A worker receiving ``(path, version)`` must end up with the *same*
    substrate the sender had — if the file was swapped in between, the
    header version differs and the load fails loudly instead of silently
    answering queries over a different graph.
    """
    graph = load_stgq(path)
    if version is not None and graph.version != version:
        raise GraphError(
            f"substrate file {path} changed underneath the service: expected "
            f"version {version}, file has {graph.version}"
        )
    return graph


def pack_graph(graph: GraphSubstrate, path: PathLike, quantize: bool = False) -> CSRGraph:
    """Persist ``graph`` at ``path`` in the CSR substrate format.

    Adjacency-dict graphs are converted first; a graph that is already CSR
    is written as-is.  The returned instance is path-backed (pickles as
    ``(path, version)``).

    ``quantize=True`` writes int32 weights against a header scale factor
    (``stgq pack --quantize``): the file's dominant array halves, at a
    bounded ~2**-31 relative weight error.  The returned graph is then the
    *reloaded* file-backed substrate, so its weights are exactly what every
    worker opening the file will see.
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_social_graph(graph)
    csr.save(path, quantize=quantize)
    if quantize:
        return load_stgq(path)
    return csr


def inspect_stgq(path: PathLike) -> Dict[str, object]:
    """Read a substrate file's header without touching the array payloads."""
    header = _read_header(path)
    arrays = header.get("arrays", {})
    info: Dict[str, object] = {
        "path": str(path),
        "format": header.get("format"),
        "n": header.get("n"),
        "m": header.get("m"),
        "version": header.get("version"),
        "dtypes": {name: meta.get("dtype") for name, meta in arrays.items()},
        "identity_ids": "labels" not in arrays,
        "quantized": header.get("format") == STGQ_FORMAT_QUANTIZED,
        "file_bytes": os.path.getsize(path),
    }
    if "weight_scale" in header:
        info["weight_scale"] = header["weight_scale"]
    return info
