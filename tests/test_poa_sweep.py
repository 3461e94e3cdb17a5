"""Tests for the welfare-sweep closed forms."""

import pytest

from repro.experiments.poa_sweep import (
    optimal_total,
    pivot_welfare,
    welfare,
)
from repro.game.dynamics import fifo_symmetric_linear_nash


class TestClosedForms:
    def test_optimal_total(self):
        # g'(S) = 1/gamma  =>  (1-S)^2 = gamma.
        for gamma in (0.1, 0.3, 0.7):
            total = optimal_total(gamma)
            assert (1.0 - total) ** 2 == pytest.approx(gamma)

    def test_welfare_peak(self):
        gamma = 0.3
        best = optimal_total(gamma)
        assert welfare(best, gamma) > welfare(best + 0.05, gamma)
        assert welfare(best, gamma) > welfare(best - 0.05, gamma)

    def test_fifo_oversends_everywhere(self):
        for gamma in (0.2, 0.5, 0.8):
            for n in (2, 4, 9):
                s_fifo = n * fifo_symmetric_linear_nash(n, gamma)
                assert s_fifo > optimal_total(gamma)

    def test_fifo_welfare_below_optimum(self):
        gamma = 0.3
        best = welfare(optimal_total(gamma), gamma)
        for n in (2, 5, 10):
            s_fifo = n * fifo_symmetric_linear_nash(n, gamma)
            assert welfare(s_fifo, gamma) < best

    def test_pivot_welfare_below_fs_but_above_zero(self):
        gamma = 0.3
        best = welfare(optimal_total(gamma), gamma)
        for n in (2, 5):
            value = pivot_welfare(n, gamma)
            assert 0.0 < value < best

    def test_pivot_overhead_vanishes_for_single_user(self):
        gamma = 0.3
        assert pivot_welfare(1, gamma) == pytest.approx(
            welfare(optimal_total(gamma), gamma))
