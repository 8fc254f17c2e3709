"""Unit tests for pivot time slots (Lemma 4 of the paper)."""

import pytest

from repro.exceptions import ScheduleError
from repro.temporal import (
    CalendarStore,
    Schedule,
    SlotRange,
    candidate_periods,
    feasible_members_for_pivot,
    pivot_feasible,
    pivot_slots,
    pivot_window,
    pivot_windows,
)


class TestPivotSlots:
    def test_pivot_ids_are_multiples_of_m(self):
        assert pivot_slots(horizon=12, activity_length=3) == [3, 6, 9, 12]
        assert pivot_slots(horizon=7, activity_length=3) == [3, 6]
        assert pivot_slots(horizon=10, activity_length=1) == list(range(1, 11))

    def test_activity_longer_than_horizon_rejected(self):
        with pytest.raises(ScheduleError):
            pivot_slots(horizon=2, activity_length=3)

    def test_invalid_activity_length(self):
        with pytest.raises(ScheduleError):
            pivot_slots(horizon=5, activity_length=0)

    def test_every_period_contains_exactly_one_pivot(self):
        """Lemma 4: any activity period of m consecutive slots contains exactly
        one pivot slot."""
        for horizon in (6, 7, 10, 13, 24):
            for m in (1, 2, 3, 4, 5):
                if m > horizon:
                    continue
                pivots = set(pivot_slots(horizon, m))
                for period in candidate_periods(horizon, m):
                    inside = [t for t in period if t in pivots]
                    assert len(inside) == 1, (horizon, m, period)

    def test_pivot_windows_cover_all_periods(self):
        """Every candidate period appears in the window of the pivot it contains."""
        for horizon in (6, 9, 11):
            for m in (2, 3, 4):
                windows = {w.pivot: w for w in pivot_windows(horizon, m)}
                for period in candidate_periods(horizon, m):
                    pivot = next(t for t in period if t % m == 0)
                    assert windows[pivot].window.contains_range(period)


class TestPivotWindow:
    def test_window_extent(self):
        w = pivot_window(pivot=6, activity_length=3, horizon=20)
        assert w.window == SlotRange(4, 8)

    def test_window_clipped_at_horizon(self):
        w = pivot_window(pivot=6, activity_length=3, horizon=7)
        assert w.window == SlotRange(4, 7)

    def test_non_pivot_slot_rejected(self):
        with pytest.raises(ScheduleError):
            pivot_window(pivot=5, activity_length=3, horizon=10)

    def test_periods_contain_the_pivot(self):
        w = pivot_window(pivot=6, activity_length=3, horizon=20)
        periods = w.periods()
        assert periods == [SlotRange(4, 6), SlotRange(5, 7), SlotRange(6, 8)]
        for period in periods:
            assert 6 in period


class TestFeasibleMembers:
    def make_store(self):
        cal = CalendarStore(9)
        cal.set("free", Schedule.always_available(9))
        cal.set("busy", Schedule.never_available(9))
        cal.set("edge", Schedule.from_string("OOO.OO.OO"))
        cal.set("pivot-only", Schedule.from_string("..O......"[:9]))
        return cal

    def test_always_available_is_feasible(self):
        cal = self.make_store()
        w = pivot_window(pivot=3, activity_length=3, horizon=9)
        members = feasible_members_for_pivot(cal, w, ["free", "busy"])
        assert members == {"free"}

    def test_member_needs_run_of_m_through_pivot(self):
        cal = self.make_store()
        w = pivot_window(pivot=3, activity_length=3, horizon=9)
        # "edge" is available 1-3 (run of 3 containing slot 3) -> feasible.
        # "pivot-only" is available only at slot 3 -> run too short.
        members = feasible_members_for_pivot(cal, w, ["edge", "pivot-only"])
        assert members == {"edge"}

    def test_member_not_available_at_pivot_is_excluded(self):
        cal = self.make_store()
        w = pivot_window(pivot=6, activity_length=3, horizon=9)
        # "edge" is busy at slot 7 but free at 5, 6; run containing 6 is [5, 6],
        # shorter than 3 -> excluded.
        members = feasible_members_for_pivot(cal, w, ["edge", "free"])
        assert members == {"free"}

    def test_pivot_beyond_the_horizon_is_never_feasible(self):
        cal = self.make_store()
        w = pivot_window(pivot=12, activity_length=4, horizon=15)
        assert not pivot_feasible(cal.get("free"), w)
        assert feasible_members_for_pivot(cal, w, ["free", "edge"]) == set()


class TestCandidatePeriods:
    def test_all_periods_enumerated(self):
        periods = candidate_periods(horizon=5, activity_length=3)
        assert periods == [SlotRange(1, 3), SlotRange(2, 4), SlotRange(3, 5)]

    def test_full_horizon_period(self):
        assert candidate_periods(horizon=4, activity_length=4) == [SlotRange(1, 4)]
