"""Pivot time slots (paper §4.2, Lemma 4).

For an activity of ``m`` consecutive slots, the paper observes that only the
slots with IDs ``m, 2m, 3m, ...`` ("pivot time slots") need to be anchored:
any feasible activity period of length ``m`` contains exactly one pivot slot,
and the period anchored at pivot ``i*m`` is contained in the window
``[(i-1)*m + 1, (i+1)*m - 1]`` of ``2m - 1`` slots.  STGSelect therefore
iterates over pivot slots instead of over every possible start slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set

from ..exceptions import ScheduleError
from ..types import Vertex
from .calendars import CalendarStore
from .schedule import Schedule
from .slots import SlotRange

__all__ = [
    "PivotWindow",
    "pivot_slots",
    "pivot_window",
    "pivot_windows",
    "candidate_periods",
    "pivot_feasible",
    "feasible_members_for_pivot",
]


@dataclass(frozen=True)
class PivotWindow:
    """A pivot slot together with its candidate window of ``2m - 1`` slots."""

    pivot: int
    window: SlotRange
    activity_length: int

    def periods(self) -> List[SlotRange]:
        """All activity periods of length ``m`` inside the window that contain the pivot."""
        result = []
        for period in self.window.windows(self.activity_length):
            if self.pivot in period:
                result.append(period)
        return result


def pivot_slots(horizon: int, activity_length: int) -> List[int]:
    """Return the pivot slot IDs ``m, 2m, ...`` within ``horizon``.

    Raises :class:`ScheduleError` when the activity cannot fit in the horizon.
    """
    if activity_length < 1:
        raise ScheduleError(f"activity length must be >= 1, got {activity_length}")
    if horizon < activity_length:
        raise ScheduleError(
            f"activity of {activity_length} slots cannot fit a horizon of {horizon} slots"
        )
    return list(range(activity_length, horizon + 1, activity_length))


def pivot_window(pivot: int, activity_length: int, horizon: int) -> PivotWindow:
    """Return the candidate window ``[(i-1)m + 1, (i+1)m - 1]`` clipped to the horizon."""
    if pivot % activity_length != 0:
        raise ScheduleError(f"slot {pivot} is not a pivot slot for m={activity_length}")
    start = pivot - activity_length + 1
    end = min(horizon, pivot + activity_length - 1)
    return PivotWindow(pivot=pivot, window=SlotRange(start, end), activity_length=activity_length)


def pivot_windows(horizon: int, activity_length: int) -> List[PivotWindow]:
    """All pivot windows for the given horizon and activity length."""
    return [pivot_window(p, activity_length, horizon) for p in pivot_slots(horizon, activity_length)]


def candidate_periods(horizon: int, activity_length: int) -> List[SlotRange]:
    """Every possible activity period of ``activity_length`` slots in the horizon.

    This is the search space of the *baseline* STGQ algorithm (one SGQ per
    period); the pivot decomposition covers exactly the same periods, which
    is asserted by the property tests.
    """
    return SlotRange(1, horizon).windows(activity_length)


def pivot_feasible(schedule: Schedule, window: PivotWindow) -> bool:
    """Definition 4 of the paper for one person: free in the pivot slot, with
    a free run of at least ``m`` slots through the pivot inside the window.

    A pivot beyond the schedule's horizon is never feasible.
    """
    if window.pivot > schedule.horizon or not schedule.is_available(window.pivot):
        return False
    run = schedule.restricted(window.window).run_containing(window.pivot)
    return run is not None and len(run) >= window.activity_length


def feasible_members_for_pivot(
    calendars: CalendarStore,
    window: PivotWindow,
    candidates: Iterable[Vertex],
) -> Set[Vertex]:
    """The people among ``candidates`` who satisfy Definition 4 for ``window``
    (see :func:`pivot_feasible`)."""
    return {person for person in candidates if pivot_feasible(calendars.get(person), window)}
