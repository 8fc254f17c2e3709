"""Result objects returned by the SGQ/STGQ solvers.

Every solver (SGSelect, STGSelect, the brute-force baselines, the IP model,
PCArrange) returns a :class:`GroupResult` / :class:`STGroupResult` so results
can be compared uniformly in tests and experiments.  Search statistics are
attached so the benchmark harness can report pruning effectiveness next to
wall-clock numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import FrozenSet, List, Optional

from ..temporal.slots import SlotRange
from ..types import Vertex

__all__ = ["SearchStats", "GroupResult", "STGroupResult"]


@dataclass
class SearchStats:
    """Counters describing how much work a solver performed.

    Attributes
    ----------
    nodes_expanded:
        Branch-and-bound nodes visited (or candidate groups enumerated for
        brute-force solvers).
    candidates_considered:
        Vertices examined across all nodes.
    distance_prunes / acquaintance_prunes / availability_prunes:
        Number of times each pruning rule cut a subtree.
    expansibility_removals / unfamiliarity_removals / temporal_removals:
        Vertices permanently removed from a node's candidate set by the
        corresponding access-ordering condition.
    solutions_found:
        Number of times the incumbent solution was improved.
    pivots_processed:
        Pivot time slots processed (STGQ only).
    elapsed_seconds:
        Wall-clock time spent inside the solver.
    """

    nodes_expanded: int = 0
    candidates_considered: int = 0
    distance_prunes: int = 0
    acquaintance_prunes: int = 0
    availability_prunes: int = 0
    expansibility_removals: int = 0
    unfamiliarity_removals: int = 0
    temporal_removals: int = 0
    solutions_found: int = 0
    pivots_processed: int = 0
    elapsed_seconds: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another stats object into this one (used per pivot)."""
        mine, theirs = vars(self), vars(other)
        for name in _SEARCH_STATS_FIELDS:
            mine[name] += theirs[name]

    def as_dict(self) -> dict:
        """Return the counters as a plain dict in field order (for CSV reporting)."""
        values = vars(self)
        return {name: values[name] for name in _SEARCH_STATS_FIELDS}


#: Counter names in declaration order — the one list ``merge`` and
#: ``as_dict`` walk, so a new field reaches every report automatically.
_SEARCH_STATS_FIELDS = tuple(f.name for f in fields(SearchStats))


@dataclass(frozen=True)
class GroupResult:
    """Result of a Social Group Query.

    Attributes
    ----------
    feasible:
        ``True`` when a group satisfying all constraints was found.
    members:
        The selected attendees (including the initiator) as a frozenset;
        empty when infeasible.
    total_distance:
        Sum of social distances from the initiator to every attendee
        (``math.inf`` when infeasible).
    solver:
        Name of the algorithm that produced the result.
    stats:
        Search statistics (optional; heuristics may leave defaults).
    """

    feasible: bool
    members: FrozenSet[Vertex]
    total_distance: float
    solver: str = ""
    stats: SearchStats = field(default_factory=SearchStats)

    @classmethod
    def infeasible(cls, solver: str = "", stats: Optional[SearchStats] = None) -> "GroupResult":
        """Construct the canonical infeasible result."""
        return cls(
            feasible=False,
            members=frozenset(),
            total_distance=math.inf,
            solver=solver,
            stats=stats or SearchStats(),
        )

    @property
    def size(self) -> int:
        """Number of attendees in the group (0 when infeasible)."""
        return len(self.members)

    def sorted_members(self) -> List[Vertex]:
        """Members sorted by their repr (stable, type-agnostic ordering)."""
        return sorted(self.members, key=repr)

    def matches(self, other: "GroupResult", tol: float = 1e-9) -> bool:
        """Two results are equivalent when both are infeasible, or both are
        feasible with the same total distance (the optimal group need not be
        unique, so membership is not compared)."""
        if self.feasible != other.feasible:
            return False
        if not self.feasible:
            return True
        return math.isclose(self.total_distance, other.total_distance, rel_tol=0, abs_tol=tol)


@dataclass(frozen=True)
class STGroupResult:
    """Result of a Social-Temporal Group Query.

    In addition to the SGQ result fields, carries the selected activity
    period (``m`` consecutive slots), the pivot slot it was anchored at, and
    the full run of slots shared by all attendees around that period.
    """

    feasible: bool
    members: FrozenSet[Vertex]
    total_distance: float
    period: Optional[SlotRange] = None
    pivot: Optional[int] = None
    shared_slots: Optional[SlotRange] = None
    solver: str = ""
    stats: SearchStats = field(default_factory=SearchStats)

    @classmethod
    def infeasible(cls, solver: str = "", stats: Optional[SearchStats] = None) -> "STGroupResult":
        """Construct the canonical infeasible result."""
        return cls(
            feasible=False,
            members=frozenset(),
            total_distance=math.inf,
            solver=solver,
            stats=stats or SearchStats(),
        )

    @property
    def size(self) -> int:
        """Number of attendees in the group (0 when infeasible)."""
        return len(self.members)

    def sorted_members(self) -> List[Vertex]:
        """Members sorted by their repr (stable, type-agnostic ordering)."""
        return sorted(self.members, key=repr)

    def social_result(self) -> GroupResult:
        """Project onto a plain :class:`GroupResult` (drops temporal fields)."""
        return GroupResult(
            feasible=self.feasible,
            members=self.members,
            total_distance=self.total_distance,
            solver=self.solver,
            stats=self.stats,
        )

    def matches(self, other: "STGroupResult", tol: float = 1e-9) -> bool:
        """Equivalence on feasibility and total distance (see GroupResult.matches)."""
        if self.feasible != other.feasible:
            return False
        if not self.feasible:
            return True
        return math.isclose(self.total_distance, other.total_distance, rel_tol=0, abs_tol=tol)
