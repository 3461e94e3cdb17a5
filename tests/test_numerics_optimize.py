"""Tests for scalar maximization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.optimize import (
    argmax_on_grid,
    golden_section_max,
    grid_multistart_maximize,
    grid_multistart_maximize_rows,
    linspace,
    linspace_rows,
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


#: Brackets covering both linspace branches and the zoom's edge cases.
EDGE_BRACKETS = [
    (0.0, 1.0), (1e-6, 0.999999), (0.1, 0.7), (-2.5, 3.25),
    (0.3, 0.3), (0.0, 0.0),                      # zero width
    (0.0, 7 * TINY), (1e-310, 1e-310 + 40 * TINY),  # subnormal
    (0.5, float(np.nextafter(0.5, 1.0))),        # one ulp
    (1e-300, 2e-300),
]


class TestLinspaceRows:
    @pytest.mark.parametrize("num", [3, 17, 33, 65])
    def test_each_row_matches_numpy(self, num):
        lo = np.array([b[0] for b in EDGE_BRACKETS])
        hi = np.array([b[1] for b in EDGE_BRACKETS])
        grid = linspace_rows(lo, hi, num)
        for k, (a, b) in enumerate(EDGE_BRACKETS):
            assert_bitwise(grid[k], np.linspace(a, b, num))

    @given(lo=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6),
           width=st.floats(0.0, 1e3), num=st.sampled_from([3, 33, 65]))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy(self, lo, width, num):
        lows = np.array(lo)
        highs = lows + width * np.arange(1, lows.size + 1)
        grid = linspace_rows(lows, highs, num)
        for k in range(lows.size):
            assert_bitwise(grid[k], np.linspace(lows[k], highs[k], num))


def _peaks(centers):
    """Row objective ``-(x - c_k)^2`` and its one-row counterparts."""
    centers = np.asarray(centers, dtype=float)

    def rows_func(rows, xs):
        return -(xs - centers[rows, None]) ** 2

    def row_func(k):
        return lambda xs: -(xs - centers[k]) ** 2

    return rows_func, row_func


class TestGridMultistartRows:
    """Row ``k`` of the lockstep zoom equals the one-row zoom bit for bit."""

    @staticmethod
    def assert_rows_match(rows_func, row_func, lo, hi, n_scan=33,
                          tol=1e-10):
        results = grid_multistart_maximize_rows(rows_func, lo, hi,
                                                n_scan=n_scan, tol=tol)
        for k, result in enumerate(results):
            want = grid_multistart_maximize(row_func(k), lo[k], hi[k],
                                            n_scan=n_scan, tol=tol)
            assert np.float64(result.x).tobytes() == \
                np.float64(want.x).tobytes()
            assert np.float64(result.value).tobytes() == \
                np.float64(want.value).tobytes()
            assert result.evaluations == want.evaluations
            assert result.grid_calls == want.grid_calls
        return results

    def test_edge_brackets(self):
        lo = np.array([b[0] for b in EDGE_BRACKETS])
        hi = np.array([b[1] for b in EDGE_BRACKETS])
        rows_func, row_func = _peaks((lo + hi) / 2 + 1e-9)
        for tol in (1e-10, 0.0):
            self.assert_rows_match(rows_func, row_func, lo, hi, tol=tol)

    def test_rows_hit_the_resolution_floor_in_different_rounds(self):
        """With ``tol=0`` every row zooms until its bracket stops
        shrinking, which happens after a magnitude-dependent number of
        rounds."""
        lo = np.array([0.0, 1.0, 1e3, 1.0, 1e-300])
        hi = np.array([1.0, 2.0, 1e3 + 1e-6, 1.0 + 1e-12, 2e-300])
        rows_func, row_func = _peaks(lo + 0.3 * (hi - lo))
        results = self.assert_rows_match(rows_func, row_func, lo, hi,
                                         tol=0.0)
        assert len({result.grid_calls for result in results}) > 1

    def test_reversed_bracket(self):
        rows_func, row_func = _peaks([0.4, 0.6])
        self.assert_rows_match(rows_func, row_func, np.array([1.0, 0.0]),
                               np.array([0.0, 1.0]))

    def test_nan_and_inf_rows(self):
        def rows_func(rows, xs):
            ys = -(xs - 0.5) ** 2
            ys[rows == 0] = np.nan
            ys[(rows == 1)[:, None] & (xs > 0.3)] = -np.inf
            return ys

        def row_func(k):
            return lambda xs: rows_func(np.array([k]), xs[None, :])[0]

        self.assert_rows_match(rows_func, row_func, np.zeros(3),
                               np.ones(3))

    @given(centers=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=5),
           n_scan=st.sampled_from([3, 33, 65]))
    @settings(max_examples=60, deadline=None)
    def test_random_peaks(self, centers, n_scan):
        rows_func, row_func = _peaks(centers)
        lo = np.zeros(len(centers))
        self.assert_rows_match(rows_func, row_func, lo, lo + 1.0,
                               n_scan=n_scan)

    def test_raising_row_is_isolated(self):
        """A row whose objective raises comes back ``None``; the batch
        call that raised is retried row by row, and the other rows keep
        the results they would get alone."""
        centers = np.array([0.2, 0.5, 0.7])
        calls = []

        def rows_func(rows, xs):
            calls.append(rows.tolist())
            if 1 in rows.tolist() and len(calls) > 4:
                raise TypeError("row 1 breaks in a refinement round")
            return -(xs - centers[rows, None]) ** 2

        results = grid_multistart_maximize_rows(rows_func, np.zeros(3),
                                                np.ones(3))
        assert results[1] is None
        _, row_func = _peaks(centers)
        for k in (0, 2):
            want = grid_multistart_maximize(row_func(k), 0.0, 1.0)
            assert results[k] == want
        assert [1] in calls and [0] in calls

    def test_n_scan_validated(self):
        rows_func, _ = _peaks([0.5])
        with pytest.raises(ValueError, match="n_scan"):
            grid_multistart_maximize_rows(rows_func, np.zeros(1),
                                          np.ones(1), n_scan=2)
