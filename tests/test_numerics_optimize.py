"""Tests for scalar maximization."""

import math

import pytest

from repro.numerics.optimize import (
    argmax_on_grid,
    golden_section_max,
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
