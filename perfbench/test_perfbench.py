"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` from the
repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

from loadgen import poisson_schedule  # noqa: E402
from oracle import canonical, check_versioned, version_bracket  # noqa: E402
from stats import highest_supported_percentile, percentile, samples_beyond  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import zipf_counts  # noqa: E402


# -- percentile selection ---------------------------------------------------
def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 100) == 100
    assert percentile([7.0], 95) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 0)


def test_highest_percentile_keeps_ten_samples_beyond():
    assert samples_beyond(200, 95) == 10
    assert samples_beyond(199, 95) == 9
    assert highest_supported_percentile(200) == 95
    assert highest_supported_percentile(199) == 90
    assert highest_supported_percentile(1000) == 99
    assert highest_supported_percentile(5) == 50


# -- self-time subtraction ----------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_children():
    clock = _Clock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer")
    clock.now = 10
    child = tracer.begin("child")
    clock.now = 40
    grandchild = tracer.begin("grandchild")
    clock.now = 45
    tracer.end(grandchild)
    clock.now = 60
    tracer.end(child)
    clock.now = 70
    second = tracer.begin("child")
    clock.now = 80
    tracer.end(second)
    clock.now = 100
    tracer.end(outer)
    spans = tracer.snapshot()["spans"]
    assert spans["outer"]["count"] == 1
    assert spans["outer"]["total_ms"] == pytest.approx(100 / 1e6)
    assert spans["outer"]["self_ms"] == pytest.approx((100 - 50 - 10) / 1e6)
    assert spans["child"]["count"] == 2
    assert spans["child"]["total_ms"] == pytest.approx(60 / 1e6)
    assert spans["child"]["self_ms"] == pytest.approx((50 - 5 + 10) / 1e6)
    assert spans["grandchild"]["self_ms"] == pytest.approx(5 / 1e6)


def test_wrapped_function_records_span_even_when_it_raises():
    clock = _Clock()
    tracer = Tracer(clock=clock)

    def boom():
        clock.now += 3
        raise RuntimeError("x")

    traced = tracer.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        traced()
    assert tracer.snapshot()["spans"]["boom"]["total_ms"] == pytest.approx(3 / 1e6)


# -- Poisson schedule ----------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_schedule(20.0, 30.0, 5)
    assert first == poisson_schedule(20.0, 30.0, 5)
    assert first != poisson_schedule(20.0, 30.0, 6)
    assert all(0 <= a <= b < 30.0 for a, b in zip(first, first[1:]))
    assert len(first) == len(poisson_schedule(20.0, 30.0, 6)) == 600


def test_poisson_schedule_gaps_are_exponential():
    offsets = poisson_schedule(50.0, 200.0, 1)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.05)
    # Exponential gaps: P(gap > mean) = 1/e.
    share = sum(1 for g in gaps if g > 1 / 50.0) / len(gaps)
    assert share == pytest.approx(0.368, abs=0.03)


# -- fixed request lists ---------------------------------------------------------
def test_zipf_counts_sum_exactly_in_zipf_proportion():
    counts = zipf_counts(64, 1.0, 360)
    assert sum(counts) == 360
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == pytest.approx(2 * counts[1], abs=1)
    assert zipf_counts(3, 0.0, 7) == [3, 2, 2]


# -- version-bracket correctness ----------------------------------------------
def test_version_bracket_spans_acknowledged_to_started_writes():
    writes = [(1.0, 1.5, 0, 4), (2.0, 2.5, 4, 8), (3.0, 3.5, 8, 12)]
    assert version_bracket(0.5, 0.9, writes) == (0, 0)
    assert version_bracket(0.5, 1.2, writes) == (0, 4)  # write in flight at receipt
    assert version_bracket(1.6, 1.9, writes) == (4, 4)
    assert version_bracket(1.6, 3.2, writes) == (4, 12)
    assert version_bracket(4.0, 4.1, writes) == (12, 12)
    assert version_bracket(1.0, 1.1, []) == (0, 0)


class _VersionedOracle:
    """Answers ``f"{payload['x'] * version}"``; each mutation adds one version."""

    def __init__(self):
        self.version = 0

    def expected(self, payload):
        return str(payload["x"] * self.version)

    def advance(self, mutation):
        self.version += 1


def test_versioned_check_accepts_any_version_in_the_bracket():
    trace = ["m1", "m2", "m3", "m4"]
    reads = [
        ({"x": 1}, "0", 0, 0),  # exact at version 0
        ({"x": 1}, "2", 0, 3),  # matches version 2 inside its bracket
        ({"x": 2}, "8", 1, 4),  # matches the last version
        ({"x": 1}, "4", 0, 3),  # version 4 lies outside the bracket
        ({"x": 3}, "7", 0, 4),  # matches no version at all
    ]
    assert check_versioned(_VersionedOracle(), trace, reads) == [True, True, True, False, False]


def test_canonical_ignores_id_and_stats():
    a = {"id": 1, "feasible": True, "members": [1, 2], "stats": {"nodes_expanded": 3}}
    b = {"members": [1, 2], "feasible": True, "id": 9}
    assert canonical(a) == canonical(b)
    assert canonical(a) != canonical({"feasible": False, "members": [1, 2]})
