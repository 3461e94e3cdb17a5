"""Tests for scalar maximization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.optimize import (
    argmax_on_grid,
    golden_section_max,
    linspace,
    maximize_scalar,
    multistart_maximize,
)


class TestGoldenSection:
    def test_parabola(self):
        result = golden_section_max(lambda x: -(x - 0.3) ** 2, 0.0, 1.0)
        assert result.x == pytest.approx(0.3, abs=1e-8)
        assert result.value == pytest.approx(0.0, abs=1e-12)

    def test_reversed_bounds(self):
        result = golden_section_max(lambda x: -(x - 0.3) ** 2, 1.0, 0.0)
        assert result.x == pytest.approx(0.3, abs=1e-8)

    def test_boundary_maximum(self):
        result = golden_section_max(lambda x: x, 0.0, 2.0)
        assert result.x == pytest.approx(2.0, abs=1e-6)

    def test_counts_evaluations(self):
        result = golden_section_max(lambda x: -x * x, -1.0, 1.0)
        assert result.evaluations > 10


class TestSafetyWrapping:
    def test_nan_treated_as_minus_inf(self):
        def nasty(x):
            return float("nan") if x > 0.5 else x

        result = multistart_maximize(nasty, 0.0, 1.0)
        assert result.x <= 0.5 + 1e-6

    def test_exceptions_treated_as_minus_inf(self):
        def explosive(x):
            if x > 0.7:
                raise ValueError("boom")
            return -(x - 0.6) ** 2

        result = multistart_maximize(explosive, 0.0, 1.0)
        assert result.x == pytest.approx(0.6, abs=1e-6)

    def test_inf_objective(self):
        result = multistart_maximize(
            lambda x: -math.inf if x < 0.9 else 1.0, 0.0, 1.0)
        assert result.value == 1.0


class TestMultistart:
    def test_finds_global_max_of_bimodal(self):
        # Two bumps; the right one is taller.
        def bimodal(x):
            return (math.exp(-200 * (x - 0.2) ** 2)
                    + 1.5 * math.exp(-200 * (x - 0.8) ** 2))

        result = multistart_maximize(bimodal, 0.0, 1.0, n_scan=41)
        assert result.x == pytest.approx(0.8, abs=1e-4)

    def test_rejects_tiny_scan(self):
        with pytest.raises(ValueError):
            multistart_maximize(lambda x: x, 0.0, 1.0, n_scan=2)

    def test_unimodal_agrees_with_golden(self):
        objective = lambda x: -(x - 0.42) ** 2
        multi = multistart_maximize(objective, 0.0, 1.0)
        single = maximize_scalar(objective, 0.0, 1.0)
        assert multi.x == pytest.approx(single.x, abs=1e-7)


class TestArgmaxOnGrid:
    def test_basic(self):
        assert argmax_on_grid(lambda x: -(x - 2.0) ** 2,
                              [0.0, 1.0, 2.0, 3.0]) == 2.0

    def test_empty_grid_raises(self):
        with pytest.raises(ValueError):
            argmax_on_grid(lambda x: x, [])

    def test_tie_goes_to_first(self):
        assert argmax_on_grid(lambda x: 0.0, [5.0, 6.0]) == 5.0


def assert_bitwise(actual, expected):
    """Equal bit patterns (so -0.0 and 0.0 count as different)."""
    assert actual.dtype == expected.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(actual.view(np.uint64), expected.view(np.uint64))


TINY = 5e-324      # the smallest subnormal


class TestLinspace:
    """The zoom-grid builder must reproduce ``np.linspace`` exactly."""

    @pytest.mark.parametrize("num", [3, 17, 33, 65])
    @pytest.mark.parametrize("lo,hi", [
        (0.0, 1.0), (1e-6, 0.999999), (0.1, 0.7), (-2.5, 3.25),
        (0.3, 0.3), (0.0, 0.0),                      # zero width
        (0.0, 7 * TINY), (1e-310, 1e-310 + 40 * TINY),  # subnormal
        (0.5, float(np.nextafter(0.5, 1.0))),        # one ulp
        (1e-300, 2e-300),
    ])
    def test_matches_numpy_on_edge_brackets(self, num, lo, hi):
        assert_bitwise(linspace(lo, hi, num), np.linspace(lo, hi, num))

    @given(lo=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e3),
           num=st.sampled_from([3, 17, 33, 65]))
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, lo, width, num):
        hi = lo + width
        assert_bitwise(linspace(lo, hi, num), np.linspace(lo, hi, num))

    def test_result_is_writable_and_fresh(self):
        first = linspace(0.0, 1.0, 17)
        first[0] = 9.0
        assert linspace(0.0, 1.0, 17)[0] == 0.0
