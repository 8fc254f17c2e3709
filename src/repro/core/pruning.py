"""Pruning strategies (Lemmas 2, 3 and 5 of the paper).

Each strategy is a standalone predicate over the current search state so it
can be unit-tested in isolation, toggled for ablation studies, and shared
between SGSelect and STGSelect.  All three are *sound*: they only discard
states that provably cannot improve on the incumbent (distance pruning) or
cannot be completed into any feasible solution (acquaintance and
availability pruning), so enabling them never changes the optimal answer.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Sequence

from ..graph.compiled import iter_bits
from ..graph.social_graph import SocialGraph
from ..temporal.calendars import CalendarStore
from ..temporal.pivot import PivotWindow
from ..temporal.schedule import Schedule
from ..types import Vertex

__all__ = [
    "distance_pruning",
    "acquaintance_pruning",
    "availability_pruning",
    "distance_pruning_bitset",
    "acquaintance_pruning_bitset",
    "availability_pruning_bitset",
    "busy_slot_masks",
]


def distance_pruning(
    incumbent_distance: float,
    current_distance: float,
    members_count: int,
    group_size: int,
    remaining_distances: Iterable[float],
) -> bool:
    """Lemma 2: prune when the remaining distance budget cannot pay for the
    cheapest possible completion.

    Returns ``True`` (prune) when

        D - sum_{v in VS} d_{v,q}  <  (p - |VS|) * min_{v in VA} d_{v,q}

    where ``D`` is the incumbent total distance.  With no incumbent
    (``D = inf``) the rule never fires.  With an empty candidate set the rule
    does not fire either (the size check handles that case).
    """
    if incumbent_distance == math.inf:
        return False
    needed = group_size - members_count
    if needed <= 0:
        return False
    cheapest = min(remaining_distances, default=math.inf)
    if cheapest == math.inf:
        # No candidates left: nothing to prune here, the size check stops the node.
        return False
    return incumbent_distance - current_distance < needed * cheapest


def acquaintance_pruning(
    graph: SocialGraph,
    remaining: Sequence[Vertex],
    members_count: int,
    group_size: int,
    acquaintance: int,
) -> bool:
    """Lemma 3: prune when the candidate set is too sparsely connected to
    supply the rest of the group.

    Let ``inner(v) = |VA ∩ N_v|`` be the inner degree of candidate ``v``
    (edges to other candidates).  Any feasible completion picks
    ``p - |VS|`` candidates; each of them has at most ``|VS|`` acquaintances
    among the already-selected members, so it needs at least
    ``(p - 1 - k) - |VS| = p - |VS| - 1 - k`` acquaintances among the other
    chosen candidates.  Their total inner degree is therefore at least
    ``(p - |VS|) (p - |VS| - 1 - k)``.  The rule compares that lower bound
    with the upper bound

        sum_{v in VA} inner(v) - (|VA| - p + |VS|) * min_{v in VA} inner(v)

    on the total inner degree of the chosen candidates (avoiding a sort).
    Returns ``True`` (prune) when the upper bound is below the lower bound.

    .. note::
       The paper's Lemma 3 states the lower bound as
       ``(p - |VS|)(p - |VS| - k)``, which implicitly assumes a chosen
       candidate gets no acquaintance credit from the members already in
       ``VS``; that version can prune states that still lead to feasible
       groups (verified by counter-example in the test-suite).  The corrected
       bound used here is sound, still prunes the paper's worked example
       (Appendix A, Example 2), and preserves optimality.
    """
    needed = group_size - members_count
    if needed <= 0:
        return False
    required = needed * (needed - 1 - acquaintance)
    if required <= 0:
        # The lower bound is non-positive: the rule can never fire.
        return False
    remaining_set = set(remaining)
    if not remaining_set:
        return False
    total_inner = 0
    min_inner = None
    for v in remaining_set:
        nbrs = graph.neighbors(v)
        inner = sum(1 for u in remaining_set if u in nbrs)
        total_inner += inner
        if min_inner is None or inner < min_inner:
            min_inner = inner
    not_chosen = len(remaining_set) - needed
    if not_chosen < 0:
        # Fewer candidates than needed; the size check stops the node.
        return False
    upper_bound = total_inner - not_chosen * (min_inner or 0)
    return upper_bound < required


def distance_pruning_bitset(
    incumbent_distance: float,
    current_distance: float,
    members_count: int,
    group_size: int,
    remaining_mask: int,
    dist: Sequence[float],
) -> bool:
    """Bitset counterpart of :func:`distance_pruning` (Lemma 2).

    Relies on the compiled-graph invariant that adopted distances are
    ascending in id order, so the cheapest remaining candidate is simply the
    lowest set bit of ``remaining_mask`` — no scan needed.
    """
    if incumbent_distance == math.inf:
        return False
    needed = group_size - members_count
    if needed <= 0 or not remaining_mask:
        return False
    cheapest = dist[(remaining_mask & -remaining_mask).bit_length() - 1]
    return incumbent_distance - current_distance < needed * cheapest


def acquaintance_pruning_bitset(
    adj: Sequence[int],
    remaining_mask: int,
    members_count: int,
    group_size: int,
    acquaintance: int,
) -> bool:
    """Bitset counterpart of :func:`acquaintance_pruning` (Lemma 3, corrected
    bound — see the reference docstring).  Inner degrees become one
    AND/popcount per remaining candidate."""
    needed = group_size - members_count
    if needed <= 0:
        return False
    required = needed * (needed - 1 - acquaintance)
    if required <= 0 or not remaining_mask:
        return False
    count = remaining_mask.bit_count()
    not_chosen = count - needed
    if not_chosen < 0:
        return False
    total_inner = 0
    min_inner: Optional[int] = None
    mask = remaining_mask
    while mask:
        low = mask & -mask
        inner = (remaining_mask & adj[low.bit_length() - 1]).bit_count()
        total_inner += inner
        if min_inner is None or inner < min_inner:
            min_inner = inner
        mask ^= low
    upper_bound = total_inner - not_chosen * (min_inner or 0)
    return upper_bound < required


def busy_slot_masks(
    schedules: Sequence[Optional[Schedule]], feasible_mask: int, window: PivotWindow
) -> Dict[int, int]:
    """Per-slot busy masks over a pivot window — the compiled kernel's
    input to :func:`availability_pruning_bitset`.

    ``busy[slot]`` has bit ``i`` set when candidate id ``i`` (restricted to
    ``feasible_mask``) is unavailable in ``slot``, so the prune's per-slot
    candidate scan becomes one AND/popcount.
    """
    masks: Dict[int, int] = {}
    for slot in window.window:
        mask = 0
        for i in iter_bits(feasible_mask):
            if not schedules[i].is_available(slot):  # type: ignore[union-attr]
                mask |= 1 << i
        masks[slot] = mask
    return masks


def availability_pruning_bitset(
    busy_masks: Mapping[int, int],
    remaining_mask: int,
    members_count: int,
    group_size: int,
    window: PivotWindow,
) -> bool:
    """Bitset counterpart of :func:`availability_pruning` (Lemma 5).

    ``busy_masks[slot]`` must hold the bitmask of candidate ids that are
    *unavailable* in ``slot`` for every slot of the pivot window, so the
    per-slot unavailable count is one AND/popcount instead of a scan over
    the remaining candidates.
    """
    needed = group_size - members_count
    if needed <= 0:
        return False
    count = remaining_mask.bit_count()
    if count < needed:
        return False
    threshold = count - needed + 1
    pivot = window.pivot
    m = window.activity_length

    t_minus = window.window.start - 1
    slot = pivot - 1
    while slot >= window.window.start:
        if (remaining_mask & busy_masks[slot]).bit_count() >= threshold:
            t_minus = slot
            break
        slot -= 1

    t_plus = window.window.end + 1
    slot = pivot + 1
    while slot <= window.window.end:
        if (remaining_mask & busy_masks[slot]).bit_count() >= threshold:
            t_plus = slot
            break
        slot += 1

    return t_plus - t_minus <= m


def availability_pruning(
    calendars: CalendarStore,
    remaining: Sequence[Vertex],
    members_count: int,
    group_size: int,
    window: PivotWindow,
) -> bool:
    """Lemma 5: prune when too many candidates are busy too close to the pivot.

    Let ``n = |VA| - p + |VS| + 1``.  Find the slots nearest to the pivot on
    each side (``t^-_A(n) < pivot < t^+_A(n)``) in which at least ``n``
    candidates are unavailable.  Any completion needs ``p - |VS|`` candidates
    from ``VA``; in such a slot at most ``p - |VS| - 1`` candidates are free,
    so at least one chosen attendee is busy there.  The group's shared run
    around the pivot is then confined to ``(t^-, t^+)``; if that open
    interval has fewer than ``m`` slots the state is infeasible.

    The window boundaries act as virtual all-busy slots because the activity
    period anchored at this pivot cannot extend outside the window.
    Returns ``True`` (prune) when ``t^+ - t^- <= m``.
    """
    needed = group_size - members_count
    if needed <= 0:
        return False
    remaining_list = list(remaining)
    if len(remaining_list) < needed:
        return False
    threshold = len(remaining_list) - needed + 1
    pivot = window.pivot
    m = window.activity_length

    def unavailable_count(slot: int) -> int:
        return sum(1 for v in remaining_list if not calendars.is_available(v, slot))

    # Scan below the pivot.
    t_minus = window.window.start - 1
    slot = pivot - 1
    while slot >= window.window.start:
        if unavailable_count(slot) >= threshold:
            t_minus = slot
            break
        slot -= 1

    # Scan above the pivot.
    t_plus = window.window.end + 1
    slot = pivot + 1
    while slot <= window.window.end:
        if unavailable_count(slot) >= threshold:
            t_plus = slot
            break
        slot += 1

    return t_plus - t_minus <= m
