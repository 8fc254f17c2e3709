"""Per-person availability schedules.

A :class:`Schedule` records, for one person, which time slots they are
available in over a planning horizon of ``horizon`` slots (1-based IDs, as in
the paper).  Internally the availability is an integer bitmask, which makes
the operations the STGQ algorithms rely on cheap:

* intersecting the availability of a growing intermediate solution set
  (``&`` of bitmasks),
* finding the maximal run of consecutive available slots containing a pivot
  slot (temporal extensibility ``X(VS)``),
* testing whether a person is free for a whole activity period.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..exceptions import ScheduleError
from .slots import SlotRange

__all__ = ["Schedule"]


class Schedule:
    """Availability of one person over ``horizon`` time slots.

    Parameters
    ----------
    horizon:
        Number of slots in the planning horizon; slot IDs run from 1 to
        ``horizon`` inclusive.
    available:
        Optional iterable of slot IDs the person is available in.

    Examples
    --------
    >>> s = Schedule(6, available=[2, 3, 4])
    >>> s.is_available(3)
    True
    >>> s.is_available_range(SlotRange(2, 4))
    True
    >>> s.is_available_range(SlotRange(4, 6))
    False
    """

    __slots__ = ("_horizon", "_bits")

    def __init__(self, horizon: int, available: Optional[Iterable[int]] = None) -> None:
        if horizon < 1:
            raise ScheduleError(f"horizon must be >= 1, got {horizon}")
        self._horizon = int(horizon)
        self._bits = 0
        if available is not None:
            for slot in available:
                self.set_available(slot)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_bitmask(cls, horizon: int, bits: int) -> "Schedule":
        """Build a schedule directly from an integer bitmask (bit ``i-1`` = slot ``i``)."""
        sched = cls(horizon)
        mask = (1 << horizon) - 1
        sched._bits = bits & mask
        return sched

    @classmethod
    def always_available(cls, horizon: int) -> "Schedule":
        """A schedule that is free in every slot."""
        return cls.from_bitmask(horizon, (1 << horizon) - 1)

    @classmethod
    def never_available(cls, horizon: int) -> "Schedule":
        """A schedule with no free slots."""
        return cls(horizon)

    @classmethod
    def from_string(cls, pattern: str) -> "Schedule":
        """Build a schedule from a string of ``1``/``0`` (or ``O``/``.``) characters.

        The first character is slot 1.  This mirrors the schedule tables in
        the paper's Figures 2(c) and 3(c) where available slots are circles.
        """
        cleaned = pattern.strip()
        if not cleaned:
            raise ScheduleError("empty schedule pattern")
        available = []
        for i, ch in enumerate(cleaned, start=1):
            if ch in "1Oo*x":
                available.append(i)
            elif ch in "0._- ":
                continue
            else:
                raise ScheduleError(f"unrecognised schedule character {ch!r} at position {i}")
        return cls(len(cleaned), available)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def horizon(self) -> int:
        """Number of slots in the planning horizon."""
        return self._horizon

    @property
    def bitmask(self) -> int:
        """Raw availability bitmask (bit ``i-1`` set when slot ``i`` is free)."""
        return self._bits

    def _check_slot(self, slot: int) -> None:
        if not 1 <= slot <= self._horizon:
            raise ScheduleError(f"slot {slot} outside horizon 1..{self._horizon}")

    def set_available(self, slot: int) -> None:
        """Mark ``slot`` as available."""
        self._check_slot(slot)
        self._bits |= 1 << (slot - 1)

    def set_busy(self, slot: int) -> None:
        """Mark ``slot`` as busy."""
        self._check_slot(slot)
        self._bits &= ~(1 << (slot - 1))

    def is_available(self, slot: int) -> bool:
        """Return ``True`` when the person is free in ``slot``."""
        self._check_slot(slot)
        return bool(self._bits >> (slot - 1) & 1)

    def is_available_range(self, period: SlotRange) -> bool:
        """Return ``True`` when the person is free in every slot of ``period``."""
        if period.end > self._horizon:
            return False
        mask = ((1 << len(period)) - 1) << (period.start - 1)
        return self._bits & mask == mask

    def available_slots(self) -> List[int]:
        """Return the sorted list of available slot IDs."""
        return [i + 1 for i in range(self._horizon) if self._bits >> i & 1]

    def available_count(self) -> int:
        """Number of available slots."""
        return bin(self._bits).count("1")

    def availability_ratio(self) -> float:
        """Fraction of the horizon that is available."""
        return self.available_count() / self._horizon

    def busy_slots(self) -> List[int]:
        """Return the sorted list of busy slot IDs."""
        return [i + 1 for i in range(self._horizon) if not self._bits >> i & 1]

    # ------------------------------------------------------------------
    # interval queries used by STGSelect
    # ------------------------------------------------------------------
    def available_runs(self) -> List[SlotRange]:
        """Return the maximal runs of consecutive available slots."""
        runs: List[SlotRange] = []
        start = None
        for slot in range(1, self._horizon + 2):
            free = slot <= self._horizon and self.is_available(slot)
            if free and start is None:
                start = slot
            elif not free and start is not None:
                runs.append(SlotRange(start, slot - 1))
                start = None
        return runs

    def run_containing(self, slot: int) -> Optional[SlotRange]:
        """Return the maximal run of available slots containing ``slot``, if any."""
        self._check_slot(slot)
        if not self.is_available(slot):
            return None
        lo = slot
        while lo > 1 and self.is_available(lo - 1):
            lo -= 1
        hi = slot
        while hi < self._horizon and self.is_available(hi + 1):
            hi += 1
        return SlotRange(lo, hi)

    def has_window(self, length: int, within: Optional[SlotRange] = None) -> bool:
        """Return ``True`` when some run of ``length`` consecutive free slots
        exists (optionally restricted to the ``within`` range)."""
        if length < 1:
            raise ScheduleError(f"window length must be >= 1, got {length}")
        candidates = self.available_runs()
        for run in candidates:
            effective = run if within is None else run.intersect(within)
            if effective is not None and len(effective) >= length:
                return True
        return False

    def free_windows(self, length: int, within: Optional[SlotRange] = None) -> List[SlotRange]:
        """Enumerate all activity periods of exactly ``length`` free slots."""
        windows: List[SlotRange] = []
        for run in self.available_runs():
            effective = run if within is None else run.intersect(within)
            if effective is None:
                continue
            windows.extend(effective.windows(length))
        return windows

    # ------------------------------------------------------------------
    # combination
    # ------------------------------------------------------------------
    def intersect(self, other: "Schedule") -> "Schedule":
        """Return the joint availability of two people (same horizon required)."""
        if other.horizon != self._horizon:
            raise ScheduleError(
                f"cannot intersect schedules with horizons {self._horizon} and {other.horizon}"
            )
        return Schedule.from_bitmask(self._horizon, self._bits & other._bits)

    def union(self, other: "Schedule") -> "Schedule":
        """Return the slots where at least one of the two people is free."""
        if other.horizon != self._horizon:
            raise ScheduleError(
                f"cannot union schedules with horizons {self._horizon} and {other.horizon}"
            )
        return Schedule.from_bitmask(self._horizon, self._bits | other._bits)

    def restricted(self, window: SlotRange) -> "Schedule":
        """Return a copy with availability cleared outside ``window``."""
        mask = ((1 << len(window)) - 1) << (window.start - 1)
        return Schedule.from_bitmask(self._horizon, self._bits & mask)

    def copy(self) -> "Schedule":
        """Return a copy of this schedule."""
        return Schedule.from_bitmask(self._horizon, self._bits)

    # ------------------------------------------------------------------
    # dunder helpers
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._horizon == other._horizon and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self._horizon, self._bits))

    def __iter__(self) -> Iterator[int]:
        return iter(self.available_slots())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pattern = "".join("O" if self.is_available(i) else "." for i in range(1, self._horizon + 1))
        return f"Schedule({pattern})"
