"""Access-ordering measures (paper §3.2.2 and §4.2).

SGSelect decides which candidate to add to the intermediate solution set
``VS`` next using three measures over the candidate state:

* **interior unfamiliarity** ``U(VS)`` — the worst-case number of
  non-neighbours any current member has inside ``VS`` (Definition 2),
* **exterior expansibility** ``A(VS)`` — the maximum number of vertices that
  ``VS`` can still be expanded by without some member exceeding its
  acquaintance quota (Definition 3),
* **temporal extensibility** ``X(VS)`` — the slack of the joint availability
  run around the pivot slot beyond the required activity length
  (Definition 5; STGSelect only).

Each measure has a companion *condition* used during candidate selection;
the conditions carry relaxation exponents (``θ``, ``φ``) that the solvers
adjust when no candidate qualifies.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from ..graph.social_graph import SocialGraph
from ..temporal.slots import SlotRange
from ..types import Vertex

__all__ = [
    "interior_unfamiliarity",
    "exterior_expansibility",
    "temporal_extensibility",
    "interior_unfamiliarity_condition",
    "exterior_expansibility_condition",
    "temporal_extensibility_condition",
    "candidate_measures_bitset",
]


def interior_unfamiliarity(graph: SocialGraph, members: Iterable[Vertex]) -> int:
    """``U(VS) = max_{v in VS} |VS - {v} - N_v|``.

    The number of non-neighbours (within ``VS``) of the member who knows the
    fewest other members.  ``U(VS) <= k`` is exactly the acquaintance
    constraint on ``VS``.
    """
    member_list = list(members)
    member_set = set(member_list)
    worst = 0
    for v in member_list:
        nbrs = graph.neighbors(v)
        strangers = sum(1 for u in member_set if u != v and u not in nbrs)
        if strangers > worst:
            worst = strangers
    return worst


def exterior_expansibility(
    graph: SocialGraph,
    members: Iterable[Vertex],
    remaining: Iterable[Vertex],
    acquaintance: int,
) -> int:
    """``A(VS) = min_{v in VS} (|VA ∩ N_v| + (k - |VS - {v} - N_v|))``.

    For every current member ``v``: the number of remaining candidates that
    are acquainted with ``v`` plus ``v``'s residual quota of unacquainted
    co-attendees.  The minimum over members bounds how many more attendees
    can possibly join ``VS``.
    """
    member_list = list(members)
    member_set = set(member_list)
    remaining_set = set(remaining)
    best = None
    for v in member_list:
        nbrs = graph.neighbors(v)
        neighbours_outside = sum(1 for u in remaining_set if u in nbrs)
        strangers_inside = sum(1 for u in member_set if u != v and u not in nbrs)
        value = neighbours_outside + (acquaintance - strangers_inside)
        if best is None or value < best:
            best = value
    return best if best is not None else 0


def candidate_measures_bitset(
    adj: Sequence[int],
    member_ids: Sequence[int],
    strangers: Sequence[int],
    members_mask: int,
    trial_remaining_mask: int,
    candidate: int,
    acquaintance: int,
) -> "tuple[int, int]":
    """Bitset evaluation of ``U(VS ∪ {u})`` and ``A(VS ∪ {u})`` in one pass.

    This is the compiled-kernel counterpart of
    :func:`interior_unfamiliarity` + :func:`exterior_expansibility`.  Instead
    of rescanning ``VS`` with set operations per member, it reuses the
    *incrementally maintained* stranger counters of the current search node:
    ``strangers[v]`` must hold ``|VS - {v} - N_v|`` for every ``v`` in
    ``member_ids``.  The candidate's own stranger count and every member's
    one-step delta are then single AND/popcount expressions over the
    adjacency bitmasks.

    Parameters
    ----------
    adj:
        Bitmask adjacency of the compiled feasible graph.
    member_ids:
        Ids currently in ``VS`` (any order).
    strangers:
        Per-id stranger counters, valid at the ids in ``member_ids``.
    members_mask:
        Bitmask of ``VS``.
    trial_remaining_mask:
        Bitmask of ``VA - {u}``.
    candidate:
        The id ``u`` being evaluated.
    acquaintance:
        The constraint ``k``.

    Returns
    -------
    (unfamiliarity, expansibility):
        ``U(VS ∪ {u})`` and ``A(VS ∪ {u})`` — identical to the reference
        measures evaluated on the expanded set.
    """
    cand_adj = adj[candidate]
    cand_strangers = (members_mask & ~cand_adj).bit_count()
    worst = cand_strangers
    best = (trial_remaining_mask & cand_adj).bit_count() + (acquaintance - cand_strangers)
    for v in member_ids:
        s = strangers[v] + (0 if cand_adj >> v & 1 else 1)
        if s > worst:
            worst = s
        value = (trial_remaining_mask & adj[v]).bit_count() + (acquaintance - s)
        if value < best:
            best = value
    return worst, best


def temporal_extensibility(shared_slots: Optional[SlotRange], activity_length: int) -> int:
    """``X(VS) = |TS| - m`` where ``TS`` is the joint availability run around the pivot.

    ``shared_slots`` is ``None`` when the members of ``VS`` no longer share
    any run containing the pivot slot; the extensibility is then ``-m``
    (maximally infeasible).
    """
    if shared_slots is None:
        return -activity_length
    return len(shared_slots) - activity_length


def interior_unfamiliarity_condition(
    unfamiliarity: int,
    new_size: int,
    group_size: int,
    acquaintance: int,
    theta: int,
) -> bool:
    """The interior unfamiliarity condition
    ``U(VS ∪ {v}) <= k * (|VS ∪ {v}| / p) ** θ``.

    With ``θ = 0`` the right-hand side is ``k`` and the condition is exactly
    the acquaintance constraint on the expanded set.
    """
    rhs = acquaintance * (new_size / group_size) ** theta
    return unfamiliarity <= rhs


def exterior_expansibility_condition(
    expansibility: int,
    new_size: int,
    group_size: int,
) -> bool:
    """The exterior expansibility condition
    ``A(VS ∪ {v}) >= p - |VS ∪ {v}|`` (Lemma 1 makes its failure a sound removal)."""
    return expansibility >= group_size - new_size


def temporal_extensibility_condition(
    extensibility: int,
    new_size: int,
    group_size: int,
    activity_length: int,
    phi: int,
    phi_threshold: int,
) -> bool:
    """The temporal extensibility condition
    ``X(VS ∪ {u}) >= (m - 1) * ((p - |VS ∪ {u}|) / p) ** φ``.

    Once ``φ`` has been raised to ``phi_threshold`` the right-hand side is
    treated as 0, i.e. only hard temporal feasibility (``X >= 0``) is
    required.
    """
    if phi >= phi_threshold:
        rhs = 0.0
    else:
        rhs = (activity_length - 1) * ((group_size - new_size) / group_size) ** phi
    return extensibility >= rhs
