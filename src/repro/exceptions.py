"""Exception hierarchy for the STGQ reproduction library.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class.  The hierarchy mirrors the main failure modes of
the paper's query model: malformed graphs or schedules, invalid query
parameters, and a MILP solve that ends without an answer.  A query that
admits no feasible group is not an error: every solver returns a result
whose ``feasible`` flag is ``False``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Raised when a social graph is malformed or used inconsistently."""


class VertexNotFoundError(GraphError):
    """Raised when an operation references a vertex not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex

    def __reduce__(self):
        # Rebuild from the vertex, not the formatted message, so the error
        # survives the worker-process round trip without double-wrapping.
        return (VertexNotFoundError, (self.vertex,))


class EdgeNotFoundError(GraphError):
    """Raised when an operation references an edge not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v

    def __reduce__(self):
        # See VertexNotFoundError.__reduce__: pickle the operands, not the
        # formatted message.
        return (EdgeNotFoundError, (self.u, self.v))


class ScheduleError(ReproError):
    """Raised when a schedule or calendar is malformed."""


class QueryError(ReproError):
    """Raised when query parameters are invalid (e.g. non-positive group size)."""


class SolverError(ReproError):
    """Raised when an optimisation backend fails (e.g. MILP solver errors)."""


class ProtocolError(ReproError):
    """Raised when a network peer violates the stgq wire protocol.

    Covers malformed or oversized frames, unexpected frame types and
    protocol-version mismatches on the socket path
    (:mod:`repro.service.net.protocol`).
    """


class WorkerUnavailableError(ReproError):
    """Raised when a remote worker cannot be reached or answer in time.

    The :class:`~repro.service.net.RemoteBackend` catches this per shard and
    degrades the affected requests to error results instead of failing the
    whole batch; it is only visible to callers using the connection layer
    directly.
    """


class DatasetError(ReproError):
    """Raised when a dataset cannot be generated or loaded."""
