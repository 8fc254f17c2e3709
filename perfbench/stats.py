"""Order statistics for latency samples."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {q}")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank ``q``-th percentile."""
    return count - max(1, math.ceil(q / 100.0 * count)) if count else 0


def highest_supported_percentile(count: int, candidates=(99.9, 99, 95, 90, 75, 50)) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for q in candidates:
        if samples_beyond(count, q) >= 10:
            return q
    return 50.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
