"""Tests for service curves."""

import math

import pytest

from repro.queueing.service_curves import (
    MD1Curve,
    MG1Curve,
    MM1Curve,
    QuadraticCurve,
)

STEP = 1e-6


def numeric_derivative(curve, x):
    return (curve.value(x + STEP) - curve.value(x - STEP)) / (2 * STEP)


def numeric_second(curve, x):
    return (curve.value(x + STEP) - 2 * curve.value(x)
            + curve.value(x - STEP)) / STEP ** 2


class TestMM1Curve:
    def setup_method(self):
        self.curve = MM1Curve()

    def test_known_values(self):
        assert self.curve.value(0.0) == 0.0
        assert self.curve.value(0.5) == pytest.approx(1.0)
        assert self.curve.value(0.75) == pytest.approx(3.0)

    def test_divergence_at_capacity(self):
        assert self.curve.value(1.0) == math.inf
        assert self.curve.value(1.5) == math.inf
        assert self.curve.derivative(1.0) == math.inf

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            self.curve.value(-0.1)
        with pytest.raises(ValueError):
            self.curve.derivative(-0.1)
        with pytest.raises(ValueError):
            self.curve.second_derivative(-0.1)

    @pytest.mark.parametrize("load", [0.1, 0.3, 0.6, 0.9])
    def test_derivatives_match_numeric(self, load):
        assert self.curve.derivative(load) == pytest.approx(
            numeric_derivative(self.curve, load), rel=1e-5)
        assert self.curve.second_derivative(load) == pytest.approx(
            numeric_second(self.curve, load), rel=1e-3)

    def test_strictly_increasing_and_convex(self):
        loads = [0.1 * k for k in range(1, 10)]
        values = [self.curve.value(x) for x in loads]
        derivs = [self.curve.derivative(x) for x in loads]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(b > a for a, b in zip(derivs, derivs[1:]))

    def test_admits(self):
        assert self.curve.admits(0.5)
        assert not self.curve.admits(1.0)
        assert not self.curve.admits(-0.1)


class TestMG1Curve:
    def test_cv_one_equals_mm1(self):
        mg1 = MG1Curve(cv=1.0)
        mm1 = MM1Curve()
        for load in (0.1, 0.4, 0.8):
            assert mg1.value(load) == pytest.approx(mm1.value(load))

    def test_md1_below_mm1(self):
        # Deterministic service queues less than exponential.
        md1 = MD1Curve()
        mm1 = MM1Curve()
        for load in (0.3, 0.6, 0.9):
            assert md1.value(load) < mm1.value(load)

    def test_higher_variability_queues_more(self):
        low = MG1Curve(cv=0.5)
        high = MG1Curve(cv=2.0)
        assert high.value(0.7) > low.value(0.7)

    @pytest.mark.parametrize("cv", [0.0, 0.7, 1.5])
    @pytest.mark.parametrize("load", [0.2, 0.5, 0.85])
    def test_derivatives_match_numeric(self, cv, load):
        curve = MG1Curve(cv=cv)
        assert curve.derivative(load) == pytest.approx(
            numeric_derivative(curve, load), rel=1e-5)
        assert curve.second_derivative(load) == pytest.approx(
            numeric_second(curve, load), rel=1e-3)

    def test_negative_cv_rejected(self):
        with pytest.raises(ValueError):
            MG1Curve(cv=-0.5)

    def test_overload(self):
        assert MG1Curve().value(1.2) == math.inf


class TestQuadraticCurve:
    def test_values(self):
        curve = QuadraticCurve(a=2.0)
        assert curve.value(3.0) == pytest.approx(18.0)
        assert curve.derivative(3.0) == pytest.approx(12.0)
        assert curve.second_derivative(3.0) == pytest.approx(4.0)

    def test_no_capacity_pole(self):
        curve = QuadraticCurve()
        assert curve.capacity == math.inf
        assert curve.admits(100.0)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(ValueError):
            QuadraticCurve(a=0.0)
        with pytest.raises(ValueError):
            QuadraticCurve(a=-1.0)
