"""Temporal substrate: time slots, per-person schedules, calendar store,
pivot-slot decomposition, and schedule generators."""

from .calendars import CalendarStore, LazyCalendarStore
from .generators import (
    day_structured_schedule,
    generate_calendar_store,
    random_schedule,
    resample_calendar_store,
)
from .pivot import (
    PivotWindow,
    candidate_periods,
    feasible_members_for_pivot,
    pivot_feasible,
    pivot_slots,
    pivot_window,
    pivot_windows,
)
from .schedule import Schedule
from .slots import SLOTS_PER_DAY_DEFAULT, SlotRange, day_of_slot, slot_label, slots_per_day

__all__ = [
    "Schedule",
    "CalendarStore",
    "LazyCalendarStore",
    "SlotRange",
    "SLOTS_PER_DAY_DEFAULT",
    "slots_per_day",
    "day_of_slot",
    "slot_label",
    "PivotWindow",
    "pivot_slots",
    "pivot_window",
    "pivot_windows",
    "candidate_periods",
    "feasible_members_for_pivot",
    "pivot_feasible",
    "random_schedule",
    "day_structured_schedule",
    "generate_calendar_store",
    "resample_calendar_store",
]
