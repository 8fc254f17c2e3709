"""Query objects for SGQ and STGQ.

The paper parameterises its queries as ``SGQ(p, s, k)`` and
``STGQ(p, s, k, m)``:

* ``p`` — activity size, the number of attendees *including* the initiator,
* ``s`` — social radius constraint (max number of edges from the initiator),
* ``k`` — acquaintance constraint (max number of unacquainted co-attendees
  per attendee),
* ``m`` — activity length in consecutive time slots (STGQ only).

The dataclasses below carry the parameters together with the initiator and
validate them eagerly so solvers can assume well-formed input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import QueryError
from ..types import Vertex

__all__ = ["SGQuery", "STGQuery", "SearchParameters", "VALID_KERNELS"]

#: Every selectable branch-and-bound kernel, in documentation order.  The
#: validation error message is derived from this tuple, so adding a kernel
#: here is what keeps the message (and the CLI choices) from drifting.
VALID_KERNELS = ("compiled", "reference")


@dataclass(frozen=True)
class SearchParameters:
    """Tunables of the SGSelect / STGSelect search (not query semantics).

    Attributes
    ----------
    theta:
        Initial exponent of the interior unfamiliarity condition
        (``θ`` in the paper).  ``θ = 0`` makes the condition exactly the
        acquaintance constraint; larger values prefer well-connected vertices
        early.  Relaxed (decremented) during the search when no candidate
        qualifies.
    phi:
        Initial exponent of the temporal extensibility condition (``φ``).
        Must be at least 1.  Raised during the search when no candidate
        qualifies.
    phi_threshold:
        The predetermined threshold ``t``: once ``φ`` reaches it the temporal
        extensibility requirement degenerates to "the joint availability must
        still contain an activity period" (RHS = 0).
    use_access_ordering / use_distance_pruning / use_acquaintance_pruning /
    use_availability_pruning / use_pivot_slots:
        Toggles for the individual strategies, used by the ablation
        benchmarks.  Disabling a strategy never affects optimality, only
        running time.
    kernel:
        Which branch-and-bound inner loop to run: ``"compiled"`` (default)
        maps the feasible graph to dense integer ids and evaluates the
        measures with bitmask AND/popcount and incrementally maintained
        counters; ``"reference"`` keeps the original pure-Python set-based
        loop.  Both kernels explore the identical search tree and return
        identical results and statistics (asserted by the equivalence
        test-suite); the reference kernel exists as the executable
        specification.
    """

    theta: int = 2
    phi: int = 2
    phi_threshold: int = 6
    use_access_ordering: bool = True
    use_distance_pruning: bool = True
    use_acquaintance_pruning: bool = True
    use_availability_pruning: bool = True
    use_pivot_slots: bool = True
    kernel: str = "compiled"

    def __post_init__(self) -> None:
        if self.theta < 0:
            raise QueryError(f"theta must be >= 0, got {self.theta}")
        if self.phi < 1:
            raise QueryError(f"phi must be >= 1, got {self.phi}")
        if self.phi_threshold < self.phi:
            raise QueryError(
                f"phi_threshold ({self.phi_threshold}) must be >= phi ({self.phi})"
            )
        if self.kernel not in VALID_KERNELS:
            choices = " or ".join(repr(kernel) for kernel in VALID_KERNELS)
            raise QueryError(f"kernel must be {choices}, got {self.kernel!r}")


@dataclass(frozen=True)
class SGQuery:
    """A Social Group Query ``SGQ(p, s, k)`` issued by ``initiator``.

    Attributes
    ----------
    initiator:
        The activity initiator ``q``; always part of the returned group.
    group_size:
        ``p`` — total number of attendees including the initiator.
    radius:
        ``s`` — candidates must be reachable within ``s`` edges of ``q``.
    acquaintance:
        ``k`` — each attendee may be non-adjacent to at most ``k`` other
        attendees.  ``k = 0`` demands a clique; ``k >= p - 1`` disables the
        constraint.
    """

    initiator: Vertex
    group_size: int
    radius: int
    acquaintance: int

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise QueryError(f"group size p must be >= 1, got {self.group_size}")
        if self.radius < 1:
            raise QueryError(f"social radius s must be >= 1, got {self.radius}")
        if self.acquaintance < 0:
            raise QueryError(f"acquaintance constraint k must be >= 0, got {self.acquaintance}")

    @property
    def attendees_to_select(self) -> int:
        """Number of attendees besides the initiator (``p - 1``)."""
        return self.group_size - 1

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"SGQ(p={self.group_size}, s={self.radius}, k={self.acquaintance}) "
            f"for initiator {self.initiator!r}"
        )


@dataclass(frozen=True)
class STGQuery:
    """A Social-Temporal Group Query ``STGQ(p, s, k, m)``.

    In addition to the SGQ parameters, ``activity_length`` (``m``) gives the
    number of consecutive time slots every attendee must share.
    """

    initiator: Vertex
    group_size: int
    radius: int
    acquaintance: int
    activity_length: int

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise QueryError(f"group size p must be >= 1, got {self.group_size}")
        if self.radius < 1:
            raise QueryError(f"social radius s must be >= 1, got {self.radius}")
        if self.acquaintance < 0:
            raise QueryError(f"acquaintance constraint k must be >= 0, got {self.acquaintance}")
        if self.activity_length < 1:
            raise QueryError(f"activity length m must be >= 1, got {self.activity_length}")

    @property
    def attendees_to_select(self) -> int:
        """Number of attendees besides the initiator (``p - 1``)."""
        return self.group_size - 1

    def social_part(self) -> SGQuery:
        """The SGQ obtained by dropping the temporal constraint."""
        return SGQuery(
            initiator=self.initiator,
            group_size=self.group_size,
            radius=self.radius,
            acquaintance=self.acquaintance,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"STGQ(p={self.group_size}, s={self.radius}, k={self.acquaintance}, "
            f"m={self.activity_length}) for initiator {self.initiator!r}"
        )
