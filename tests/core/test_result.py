"""Unit tests for result objects and search statistics."""

import dataclasses
import json
import math

import pytest

from repro.core import GroupResult, STGroupResult, SearchStats
from repro.service.context import ServiceStats
from repro.temporal import SlotRange


def distinct_values(cls):
    """A distinct value per field of ``cls``, of the field's own type.

    Float fields get a fractional part, so an ``int`` cast would show.
    """
    return {
        f.name: i + 1.25 if isinstance(f.default, float) else i + 1
        for i, f in enumerate(dataclasses.fields(cls))
    }


class TestSearchStats:
    def test_defaults_are_zero(self):
        stats = SearchStats()
        assert stats.nodes_expanded == 0
        assert stats.elapsed_seconds == 0.0

    def test_merge_accumulates(self):
        a = SearchStats(nodes_expanded=3, distance_prunes=1, elapsed_seconds=0.5)
        b = SearchStats(nodes_expanded=2, acquaintance_prunes=4, elapsed_seconds=0.25)
        a.merge(b)
        assert a.nodes_expanded == 5
        assert a.distance_prunes == 1
        assert a.acquaintance_prunes == 4
        assert a.elapsed_seconds == pytest.approx(0.75)

    def test_as_dict_contains_all_counters(self):
        d = SearchStats(nodes_expanded=7).as_dict()
        assert d["nodes_expanded"] == 7
        assert "availability_prunes" in d
        assert "pivots_processed" in d

    def test_every_field_reaches_as_dict_in_order(self):
        # A counter added later cannot drop off the wire: as_dict is the
        # per-response ``stats`` payload.
        values = distinct_values(SearchStats)
        d = SearchStats(**values).as_dict()
        assert list(d) == [f.name for f in dataclasses.fields(SearchStats)]
        assert d == values
        for name, value in d.items():
            assert type(value) is type(values[name]), name

    def test_merge_accumulates_every_field(self):
        values = distinct_values(SearchStats)
        stats = SearchStats(**values)
        stats.merge(SearchStats(**values))
        assert stats.as_dict() == {name: 2 * value for name, value in values.items()}


class TestServiceStats:
    def test_every_field_reaches_as_dict_in_order(self):
        # as_dict is the ``stats_delta`` frame and the ``/stats`` payload.
        values = distinct_values(ServiceStats)
        d = ServiceStats(**values).as_dict()
        assert list(d) == [f.name for f in dataclasses.fields(ServiceStats)]
        assert d == values
        for name, value in d.items():
            assert type(value) is type(values[name]), name

    def test_merge_dict_round_trips_every_field_over_json(self):
        values = distinct_values(ServiceStats)
        # The delta crosses the wire as JSON numbers of any type; merge_dict
        # casts each one back to its field's type.
        wire = json.loads(json.dumps({name: float(v) for name, v in values.items()}))
        stats = ServiceStats(**values)
        stats.merge_dict(wire)
        merged = stats.as_dict()
        assert merged == {name: 2 * value for name, value in values.items()}
        for name, value in merged.items():
            assert type(value) is type(values[name]), name

    def test_merge_dict_tolerates_missing_keys(self):
        stats = ServiceStats(queries=3)
        stats.merge_dict({"cache_hits": 2})
        assert stats.queries == 3
        assert stats.cache_hits == 2
        assert stats.solve_seconds == 0.0


class TestGroupResult:
    def test_infeasible_constructor(self):
        r = GroupResult.infeasible(solver="X")
        assert not r.feasible
        assert r.members == frozenset()
        assert r.total_distance == math.inf
        assert r.size == 0

    def test_size_and_sorted_members(self):
        r = GroupResult(True, frozenset({"b", "a", "q"}), 3.0, solver="X")
        assert r.size == 3
        assert r.sorted_members() == ["'a'", "'b'", "'q'"] or r.sorted_members() == ["a", "b", "q"]

    def test_matches_on_distance_not_membership(self):
        a = GroupResult(True, frozenset({"a", "q"}), 5.0)
        b = GroupResult(True, frozenset({"b", "q"}), 5.0)
        c = GroupResult(True, frozenset({"b", "q"}), 6.0)
        assert a.matches(b)
        assert not a.matches(c)

    def test_matches_infeasible_pairs(self):
        assert GroupResult.infeasible().matches(GroupResult.infeasible())
        assert not GroupResult.infeasible().matches(GroupResult(True, frozenset({"q"}), 0.0))


class TestSTGroupResult:
    def test_infeasible_constructor(self):
        r = STGroupResult.infeasible(solver="Y")
        assert not r.feasible
        assert r.period is None
        assert r.pivot is None

    def test_social_projection(self):
        r = STGroupResult(
            feasible=True,
            members=frozenset({"q", "a"}),
            total_distance=2.0,
            period=SlotRange(2, 4),
            pivot=3,
            shared_slots=SlotRange(1, 5),
            solver="STGSelect",
        )
        social = r.social_result()
        assert isinstance(social, GroupResult)
        assert social.members == r.members
        assert social.total_distance == 2.0

    def test_matches(self):
        a = STGroupResult(True, frozenset({"q"}), 1.0, period=SlotRange(1, 2))
        b = STGroupResult(True, frozenset({"q"}), 1.0, period=SlotRange(3, 4))
        c = STGroupResult(True, frozenset({"q"}), 2.0, period=SlotRange(1, 2))
        assert a.matches(b)
        assert not a.matches(c)
        assert not a.matches(STGroupResult.infeasible())

    def test_sorted_members(self):
        r = STGroupResult(True, frozenset({3, 1, 2}), 1.0)
        assert r.sorted_members() == [1, 2, 3]
