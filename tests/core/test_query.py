"""Unit tests for the query dataclasses and search parameters."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import VALID_KERNELS, SGQuery, STGQuery, SearchParameters
from repro.exceptions import QueryError


class TestSGQuery:
    def test_valid_query(self):
        q = SGQuery(initiator="q", group_size=4, radius=2, acquaintance=1)
        assert q.attendees_to_select == 3
        assert "SGQ(p=4, s=2, k=1)" in q.describe()

    def test_frozen(self):
        q = SGQuery(initiator="q", group_size=4, radius=2, acquaintance=1)
        with pytest.raises(AttributeError):
            q.group_size = 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 0, "radius": 1, "acquaintance": 0},
            {"group_size": 3, "radius": 0, "acquaintance": 0},
            {"group_size": 3, "radius": 1, "acquaintance": -1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(QueryError):
            SGQuery(initiator="q", **kwargs)

    def test_single_person_group_allowed(self):
        q = SGQuery(initiator="q", group_size=1, radius=1, acquaintance=0)
        assert q.attendees_to_select == 0


class TestSTGQuery:
    def test_valid_query(self):
        q = STGQuery(initiator="q", group_size=4, radius=2, acquaintance=1, activity_length=3)
        assert q.attendees_to_select == 3
        assert "m=3" in q.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_size": 0, "radius": 1, "acquaintance": 0, "activity_length": 1},
            {"group_size": 3, "radius": 0, "acquaintance": 0, "activity_length": 1},
            {"group_size": 3, "radius": 1, "acquaintance": -1, "activity_length": 1},
            {"group_size": 3, "radius": 1, "acquaintance": 0, "activity_length": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(QueryError):
            STGQuery(initiator="q", **kwargs)

    def test_social_part_drops_temporal(self):
        q = STGQuery(initiator="q", group_size=4, radius=2, acquaintance=1, activity_length=3)
        sg = q.social_part()
        assert isinstance(sg, SGQuery)
        assert (sg.group_size, sg.radius, sg.acquaintance) == (4, 2, 1)


class TestSearchParameters:
    def test_defaults(self):
        params = SearchParameters()
        assert params.theta == 2
        assert params.phi == 2
        assert params.use_distance_pruning

    def test_invalid_theta(self):
        with pytest.raises(QueryError):
            SearchParameters(theta=-1)

    def test_invalid_phi(self):
        with pytest.raises(QueryError):
            SearchParameters(phi=0)

    def test_phi_threshold_must_dominate_phi(self):
        with pytest.raises(QueryError):
            SearchParameters(phi=4, phi_threshold=3)

    def test_strategy_toggles(self):
        params = SearchParameters(use_distance_pruning=False, use_pivot_slots=False)
        assert not params.use_distance_pruning
        assert not params.use_pivot_slots
        assert params.use_acquaintance_pruning


class TestKernelSelection:
    @pytest.mark.parametrize("kernel", VALID_KERNELS)
    def test_every_listed_kernel_constructs(self, kernel):
        # The registry is authoritative: a kernel name listed there must be
        # accepted as-is.
        assert SearchParameters(kernel=kernel).kernel == kernel

    def test_registry_is_compiled_and_reference(self):
        assert VALID_KERNELS == ("compiled", "reference")

    def test_retired_numpy_kernel_is_rejected(self):
        # Rejected like any unknown name, never degraded to another kernel.
        with pytest.raises(QueryError, match="'numpy'"):
            SearchParameters(kernel="numpy")

    @given(st.text(max_size=12).filter(lambda s: s not in VALID_KERNELS))
    def test_unknown_kernel_message_derives_from_registry(self, kernel):
        with pytest.raises(QueryError) as excinfo:
            SearchParameters(kernel=kernel)
        # The message enumerates VALID_KERNELS itself, so a new kernel can
        # never drift out of it.
        message = str(excinfo.value)
        for name in VALID_KERNELS:
            assert repr(name) in message

    def test_other_kernels_never_warn_about_numpy(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SearchParameters(kernel="compiled").kernel == "compiled"
            assert SearchParameters(kernel="reference").kernel == "reference"
