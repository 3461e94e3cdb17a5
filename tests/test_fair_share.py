"""Tests for the Fair Share allocation function."""

import math

import numpy as np
import pytest

from repro.disciplines.base import AllocationFunction
from repro.disciplines.fair_share import FairShareAllocation
from repro.queueing.service_curves import MG1Curve


def g(x):
    return x / (1.0 - x)


class TestPaperRecursion:
    """C^FS must satisfy the paper's explicit recursion."""

    def setup_method(self):
        self.fs = FairShareAllocation()

    def test_first_user_formula(self):
        # C_1 = g(n r_1) / n.
        rates = np.array([0.1, 0.2, 0.3])
        congestion = self.fs.congestion(rates)
        assert congestion[0] == pytest.approx(g(3 * 0.1) / 3)

    def test_second_user_formula(self):
        rates = np.array([0.1, 0.2, 0.3])
        congestion = self.fs.congestion(rates)
        expected = (g(0.3) / 3
                    + (g(2 * 0.2 + 0.1) - g(3 * 0.1)) / 2)
        assert congestion[1] == pytest.approx(expected)

    def test_third_user_formula(self):
        rates = np.array([0.1, 0.2, 0.3])
        congestion = self.fs.congestion(rates)
        expected = (g(0.3) / 3
                    + (g(0.5) - g(0.3)) / 2
                    + (g(0.6) - g(0.5)))
        assert congestion[2] == pytest.approx(expected)

    def test_defining_constraint(self):
        # F((r_1..r_k, r_k, ...), (C_1..C_k, C_k, ...)) = 0 for each k.
        rates = np.array([0.05, 0.15, 0.35])
        congestion = self.fs.congestion(rates)
        n = rates.size
        for k in range(n):
            padded_r = np.concatenate([rates[: k + 1],
                                       np.full(n - k - 1, rates[k])])
            padded_c = np.concatenate([congestion[: k + 1],
                                       np.full(n - k - 1, congestion[k])])
            assert padded_c.sum() == pytest.approx(g(padded_r.sum()))


class TestStructure:
    def setup_method(self):
        self.fs = FairShareAllocation()

    def test_work_conserving(self, rates3):
        congestion = self.fs.congestion(rates3)
        assert congestion.sum() == pytest.approx(g(rates3.sum()))

    def test_feasibility(self, rates3):
        assert self.fs.is_feasible_at(rates3)

    def test_symmetry(self, rates3, rng):
        assert self.fs.check_symmetry(rates3, rng=rng)

    def test_order_follows_rates(self, rates3):
        congestion = self.fs.congestion(rates3)
        assert congestion[0] < congestion[1] < congestion[2]

    def test_equal_rates_equal_congestion(self):
        congestion = self.fs.congestion([0.2, 0.2, 0.2])
        assert np.allclose(congestion, congestion[0])
        assert congestion[0] == pytest.approx(g(0.6) / 3)

    def test_unsorted_input_handled(self):
        sorted_c = self.fs.congestion([0.1, 0.2, 0.3])
        shuffled_c = self.fs.congestion([0.3, 0.1, 0.2])
        assert np.allclose(shuffled_c, sorted_c[[2, 0, 1]])

    def test_protection_under_overload(self):
        # Opponents flooding beyond capacity: the small user keeps a
        # finite queue bounded by her symmetric worst case.
        congestion = self.fs.congestion([0.1, 5.0, 7.0])
        assert math.isfinite(congestion[0])
        assert congestion[0] <= self.fs.protection_bound(0.1, 3) + 1e-12
        assert congestion[1] == math.inf
        assert congestion[2] == math.inf

    def test_ladder_matrix_rows_sum_to_rates(self, rates3):
        ladder = self.fs.ladder_matrix(rates3)
        assert np.allclose(ladder.sum(axis=1), rates3)

    def test_ladder_matrix_reproduces_paper_table1(self):
        rates = np.array([0.08, 0.16, 0.24, 0.32])
        ladder = self.fs.ladder_matrix(rates)
        increments = np.array([0.08, 0.08, 0.08, 0.08])
        for i in range(4):
            assert np.allclose(ladder[i, : i + 1], increments[: i + 1])
            assert np.allclose(ladder[i, i + 1:], 0.0)


class TestDerivatives:
    def setup_method(self):
        self.fs = FairShareAllocation()

    def test_jacobian_matches_numeric(self, rates3):
        numeric = AllocationFunction.jacobian(self.fs, rates3)
        assert np.allclose(self.fs.jacobian(rates3), numeric, atol=1e-6)

    def test_jacobian_lower_triangular_in_rate_order(self):
        rates = np.array([0.3, 0.1, 0.2])    # unsorted on purpose
        jac = self.fs.jacobian(rates)
        order = np.argsort(rates)
        sorted_jac = jac[np.ix_(order, order)]
        assert np.allclose(np.triu(sorted_jac, k=1), 0.0)
        assert np.all(np.diag(sorted_jac) > 0)

    def test_own_derivative_is_ladder_slope(self, rates3):
        loads = self.fs.ladder_loads(np.sort(rates3))
        for k, i in enumerate(np.argsort(rates3)):
            expected = 1.0 / (1.0 - loads[k]) ** 2
            assert self.fs.own_derivative(rates3, int(i)) == pytest.approx(
                expected)

    def test_cross_derivative_insularity(self, rates3):
        # dC_i/dr_j = 0 whenever r_j > r_i.
        assert self.fs.cross_derivative(rates3, 0, 1) == 0.0
        assert self.fs.cross_derivative(rates3, 0, 2) == 0.0
        assert self.fs.cross_derivative(rates3, 1, 2) == 0.0
        assert self.fs.cross_derivative(rates3, 2, 0) > 0.0

    def test_cross_derivative_zero_at_ties(self):
        rates = np.array([0.2, 0.2, 0.3])
        assert self.fs.cross_derivative(rates, 0, 1) == pytest.approx(
            0.0, abs=1e-12)
        assert self.fs.cross_derivative(rates, 1, 0) == pytest.approx(
            0.0, abs=1e-12)

    def test_c1_at_ties(self):
        # Central numeric derivative across the tie equals the analytic
        # one-sided values (the paper: FS is C^1 on D).
        fs = self.fs
        base = np.array([0.2, 0.2, 0.4])
        eps = 1e-6
        up = base.copy()
        up[0] += eps
        down = base.copy()
        down[0] -= eps
        numeric = (fs.congestion(up)[0] - fs.congestion(down)[0]) / (2 * eps)
        assert numeric == pytest.approx(fs.own_derivative(base, 0),
                                        rel=1e-4)

    def test_second_derivatives_match_numeric(self, rates3):
        for i in range(3):
            numeric = AllocationFunction.own_second_derivative(
                self.fs, rates3, i)
            assert self.fs.own_second_derivative(
                rates3, i) == pytest.approx(numeric, rel=1e-3)
        # Mixed: dC_2/dr_2 dr_0 should be g''(R_2); dC_0/dr_0 dr_2 = 0.
        numeric_mixed = AllocationFunction.mixed_second_derivative(
            self.fs, rates3, 2, 0)
        assert self.fs.mixed_second_derivative(
            rates3, 2, 0) == pytest.approx(numeric_mixed, rel=1e-3)
        assert self.fs.mixed_second_derivative(rates3, 0, 2) == 0.0

    def test_own_second_derivative_positive(self, rates3):
        for i in range(3):
            assert self.fs.own_second_derivative(rates3, i) > 0


class TestProtectionBound:
    def test_bound_formula(self):
        fs = FairShareAllocation()
        assert fs.protection_bound(0.1, 4) == pytest.approx(g(0.4) / 4)

    def test_bound_infinite_past_capacity(self):
        fs = FairShareAllocation()
        assert fs.protection_bound(0.3, 4) == math.inf

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FairShareAllocation().protection_bound(-0.1, 3)

    def test_symmetric_point_attains_bound(self):
        fs = FairShareAllocation()
        congestion = fs.congestion([0.15, 0.15, 0.15])
        assert congestion[0] == pytest.approx(fs.protection_bound(0.15, 3))


class TestOtherCurves:
    def test_md1_fair_share(self):
        fs = FairShareAllocation(curve=MG1Curve(cv=0.0))
        rates = np.array([0.1, 0.2, 0.3])
        congestion = fs.congestion(rates)
        assert congestion.sum() == pytest.approx(fs.curve.value(0.6))
        numeric = AllocationFunction.jacobian(fs, rates)
        assert np.allclose(fs.jacobian(rates), numeric, atol=1e-6)
