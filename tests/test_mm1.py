"""Tests for closed-form M/M/1 quantities."""

import math

import numpy as np
import pytest

from repro.queueing.mm1 import (
    mm1_mean_delay,
    mm1_mean_queue,
    mm1_queue_distribution,
    mm1_utilization,
    proportional_split,
)


class TestUtilization:
    def test_basic(self):
        assert mm1_utilization(0.5) == 0.5
        assert mm1_utilization(1.0, service_rate=2.0) == 0.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mm1_utilization(-0.1)
        with pytest.raises(ValueError):
            mm1_utilization(0.5, service_rate=0.0)


class TestMeanQueue:
    def test_half_load(self):
        assert mm1_mean_queue(0.5) == pytest.approx(1.0)

    def test_little_law_consistency(self):
        # L = lambda * W for every stable load.
        for lam in (0.1, 0.5, 0.9):
            assert mm1_mean_queue(lam) == pytest.approx(
                lam * mm1_mean_delay(lam))

    def test_instability(self):
        assert mm1_mean_queue(1.0) == math.inf
        assert mm1_mean_delay(2.0) == math.inf

    def test_scaled_service_rate(self):
        assert mm1_mean_queue(1.0, service_rate=2.0) == pytest.approx(1.0)


class TestQueueDistribution:
    def test_geometric(self):
        dist = mm1_queue_distribution(0.5, max_n=3)
        assert np.allclose(dist, [0.5, 0.25, 0.125, 0.0625])

    def test_sums_to_one_in_limit(self):
        dist = mm1_queue_distribution(0.3, max_n=100)
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)

    def test_mean_matches_formula(self):
        lam = 0.6
        dist = mm1_queue_distribution(lam, max_n=500)
        mean = float(np.sum(np.arange(501) * dist))
        assert mean == pytest.approx(mm1_mean_queue(lam), abs=1e-6)

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            mm1_queue_distribution(1.0, max_n=5)


class TestProportionalSplit:
    def test_sums_to_total_queue(self):
        rates = [0.1, 0.2, 0.3]
        split = proportional_split(rates)
        assert split.sum() == pytest.approx(mm1_mean_queue(0.6))

    def test_proportionality(self):
        split = proportional_split([0.1, 0.3])
        assert split[1] == pytest.approx(3.0 * split[0])

    def test_overload_gives_inf(self):
        split = proportional_split([0.6, 0.6])
        assert np.all(np.isinf(split))

    def test_zero_rates(self):
        assert np.allclose(proportional_split([0.0, 0.0]), 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            proportional_split([-0.1, 0.2])
