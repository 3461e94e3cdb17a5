"""Tests for utility families and AU acceptance checking."""

import math

import numpy as np
import pytest

from repro.exceptions import UtilityDomainError
from repro.users.families import (
    BiconvexUtility,
    DelayBasedUtility,
    ExponentialUtility,
    LinearUtility,
    MonotoneTransformedUtility,
    PowerUtility,
    QuadraticUtility,
    ThresholdUtility,
)
from repro.users.utility import AcceptanceReport, check_acceptable


class TestLinearUtility:
    def test_value(self):
        u = LinearUtility(gamma=2.0, a=3.0)
        assert u.value(1.0, 0.5) == pytest.approx(2.0)

    def test_marginal_ratio_constant(self):
        u = LinearUtility(gamma=0.5)
        assert u.marginal_ratio(0.1, 0.2) == pytest.approx(-2.0)
        assert u.marginal_ratio(0.9, 5.0) == pytest.approx(-2.0)

    def test_infinite_congestion(self):
        assert LinearUtility(gamma=1.0).value(0.5, math.inf) == -math.inf

    def test_in_au(self):
        report = check_acceptable(LinearUtility(gamma=0.7))
        assert isinstance(report, AcceptanceReport)
        assert report.is_acceptable, report.violations

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearUtility(gamma=0.0)
        with pytest.raises(ValueError):
            LinearUtility(gamma=1.0, a=-1.0)


class TestExponentialUtility:
    def make(self):
        return ExponentialUtility(alpha=2.0, beta=5.0, gamma=1.0, nu=4.0,
                                  r_ref=0.2, c_ref=0.5)

    def test_anchor_derivatives(self):
        u = self.make()
        assert u.du_dr(0.2, 0.5) == pytest.approx(2.0)
        assert u.du_dc(0.2, 0.5) == pytest.approx(-1.0)
        assert u.marginal_ratio(0.2, 0.5) == pytest.approx(-2.0)

    def test_numeric_derivatives_agree(self):
        u = self.make()
        h = 1e-7
        dr = (u.value(0.3 + h, 0.4) - u.value(0.3 - h, 0.4)) / (2 * h)
        dc = (u.value(0.3, 0.4 + h) - u.value(0.3, 0.4 - h)) / (2 * h)
        assert u.du_dr(0.3, 0.4) == pytest.approx(dr, rel=1e-5)
        assert u.du_dc(0.3, 0.4) == pytest.approx(dc, rel=1e-5)

    def test_in_au(self):
        report = check_acceptable(self.make(), c_range=(0.05, 3.0))
        assert report.is_acceptable, report.violations

    def test_infinite_congestion(self):
        assert self.make().value(0.5, math.inf) == -math.inf

    def test_overflow_guard(self):
        u = self.make()
        assert u.value(0.1, 1e6) == -math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialUtility(alpha=0.0, beta=1.0, gamma=1.0, nu=1.0)


class TestPowerUtility:
    def test_concave_regime_in_default_au(self):
        report = check_acceptable(PowerUtility(gamma=0.5, p=0.8, q=1.5))
        assert report.is_acceptable, report.violations

    def test_convex_regime_in_literal_au(self):
        u = PowerUtility(gamma=0.5, p=1.3, q=0.7)
        assert check_acceptable(u, curvature="convex").is_acceptable
        assert not check_acceptable(u, curvature="concave").is_acceptable

    def test_concave_regime_also_quasiconcave(self):
        u = PowerUtility(gamma=0.5, p=0.8, q=1.5)
        assert check_acceptable(u, curvature="quasiconcave").is_acceptable

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            PowerUtility(gamma=1.0, p=0.0)
        with pytest.raises(ValueError):
            PowerUtility(gamma=1.0, q=-1.0)

    def test_negative_inputs(self):
        u = PowerUtility(gamma=1.0)
        assert u.value(-0.1, 0.2) == -math.inf


class TestQuadraticUtility:
    def test_concave_variant_in_default_au(self):
        report = check_acceptable(QuadraticUtility(gamma=0.5, b=-0.3))
        assert report.is_acceptable, report.violations

    def test_convex_variant_in_literal_au(self):
        u = QuadraticUtility(gamma=0.5, b=0.3)
        assert check_acceptable(u, curvature="convex").is_acceptable

    def test_monotonicity_guard(self):
        with pytest.raises(ValueError):
            QuadraticUtility(gamma=1.0, a=1.0, b=-0.6)

    def test_derivatives(self):
        u = QuadraticUtility(gamma=2.0, a=1.0, b=0.5)
        assert u.du_dr(0.4, 1.0) == pytest.approx(1.4)
        assert u.du_dc(0.4, 1.0) == pytest.approx(-2.0)


class TestBiconvexUtility:
    def make(self):
        return BiconvexUtility(a0=4.2, a1=0.1, ell=0.1, b0=1.4, b1=0.6)

    def test_in_literal_convex_au_only(self):
        u = self.make()
        assert check_acceptable(u, c_range=(0.05, 5.0),
                                curvature="convex").is_acceptable
        assert not check_acceptable(u, c_range=(0.05, 5.0),
                                    curvature="concave").is_acceptable

    def test_mrs_increases_in_both_arguments(self):
        u = self.make()
        m = abs(u.marginal_ratio(0.2, 0.5))
        assert abs(u.marginal_ratio(0.3, 0.5)) > m
        assert abs(u.marginal_ratio(0.2, 0.8)) > m

    def test_unbounded_congestion_penalty(self):
        u = self.make()
        assert u.value(0.5, 1000.0) < u.value(0.5, 1.0) - 50.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BiconvexUtility(a0=1.0, a1=1.0, ell=0.0, b0=1.0, b1=1.0)


class TestThresholdUtility:
    def test_outside_au(self):
        # Not strictly monotone in r past the threshold.
        report = check_acceptable(ThresholdUtility(threshold=0.3,
                                                   gamma=0.5))
        assert not report.is_acceptable
        report_convex = check_acceptable(
            ThresholdUtility(threshold=0.3, gamma=0.5),
            curvature="convex")
        assert not report_convex.is_acceptable

    def test_saturates(self):
        u = ThresholdUtility(threshold=0.3, gamma=1.0)
        assert u.value(0.3, 0.1) == u.value(0.9, 0.1)


class TestMonotoneTransform:
    def test_preserves_ordering(self):
        base = LinearUtility(gamma=0.5)
        transformed = MonotoneTransformedUtility(
            base, lambda u: math.atan(3.0 * u))
        a, b = (0.4, 0.2), (0.1, 0.9)
        assert base.prefers(a, b) == transformed.prefers(a, b)

    def test_preserves_infinities(self):
        base = LinearUtility(gamma=0.5)
        transformed = MonotoneTransformedUtility(base, math.exp)
        assert transformed.value(0.5, math.inf) == -math.inf


class TestMarginalRatioGuard:
    def test_degenerate_utility_detected(self):
        from repro.users.utility import Utility

        class Flat(Utility):
            def value(self, r, c):
                return r

            def du_dc(self, r, c):
                return 0.0

        with pytest.raises(UtilityDomainError):
            Flat().marginal_ratio(0.1, 0.1)


class TestEnvyHelpers:
    def test_envies(self):
        u = LinearUtility(gamma=1.0)
        assert u.envies(own=(0.1, 0.5), other=(0.4, 0.5))
        assert not u.envies(own=(0.4, 0.5), other=(0.1, 0.5))


class TestDefaultValueGrid:
    """The point-loop ``value_grid`` default keeps the input's shape."""

    @pytest.mark.parametrize("utility", [
        DelayBasedUtility(PowerUtility(gamma=0.5, q=1.2)),
        MonotoneTransformedUtility(LinearUtility(gamma=0.4), math.atan),
    ])
    @pytest.mark.parametrize("shape", [(7,), (3, 5), (2, 2, 3)])
    def test_matches_scalar_values(self, utility, shape):
        rs = np.linspace(0.01, 0.9, int(np.prod(shape))).reshape(shape)
        cs = np.linspace(0.0, 3.0, rs.size).reshape(shape)
        cs.flat[1] = math.inf
        got = utility.value_grid(rs, cs)
        assert got.shape == shape
        want = [utility.value(r, c)
                for r, c in zip(rs.ravel().tolist(), cs.ravel().tolist())]
        assert got.ravel().tolist() == want
