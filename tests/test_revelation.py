"""Tests for revelation mechanisms (Theorem 6)."""

import numpy as np
import pytest

from repro.game.revelation import (
    MisreportOutcome,
    misreport_gain,
    nash_mechanism,
    scaled_reports,
)
from repro.users.families import ExponentialUtility, LinearUtility


def exp_user(alpha, r_ref, c_ref):
    return ExponentialUtility(alpha=alpha, beta=6.0, gamma=1.0, nu=6.0,
                              r_ref=r_ref, c_ref=c_ref)


@pytest.fixture
def truthful_profile():
    return [exp_user(3.0, 0.2, 0.5), exp_user(1.8, 0.15, 0.4)]


def alpha_lies(truth, scales):
    return [ExponentialUtility(alpha=truth.alpha * s, beta=truth.beta,
                               gamma=truth.gamma, nu=truth.nu,
                               r_ref=truth.r_ref, c_ref=truth.c_ref)
            for s in scales]


class TestNashMechanism:
    def test_outcome_is_reported_nash(self, fair_share,
                                      truthful_profile):
        from repro.game.nash import is_nash

        outcome = nash_mechanism(fair_share, truthful_profile)
        assert outcome.converged
        assert is_nash(fair_share, truthful_profile, outcome.rates,
                       tol=1e-5)

    def test_deterministic(self, fair_share, truthful_profile):
        a = nash_mechanism(fair_share, truthful_profile)
        b = nash_mechanism(fair_share, truthful_profile)
        assert np.allclose(a.rates, b.rates)


class TestMisreportGain:
    def test_fs_truthful(self, fair_share, truthful_profile):
        """Theorem 6: no lie in the alpha-scaling family beats truth
        under B^FS."""
        lies = alpha_lies(truthful_profile[0],
                          np.concatenate([np.logspace(-0.5, 0.5, 7),
                                          np.linspace(1.02, 1.3, 7)]))
        outcome = misreport_gain(fair_share, truthful_profile, 0, lies)
        assert isinstance(outcome, MisreportOutcome)
        assert outcome.gain <= 1e-5
        assert outcome.best_report_index == -1

    def test_fifo_manipulable(self, fifo, truthful_profile):
        lies = alpha_lies(truthful_profile[0],
                          np.linspace(1.02, 1.3, 8))
        outcome = misreport_gain(fifo, truthful_profile, 0, lies)
        assert outcome.gain > 1e-4
        assert outcome.best_report_index >= 0

    def test_fs_truthful_against_lying_opponent(self, fair_share,
                                                truthful_profile):
        """Dominant-strategy property: truth stays optimal whatever the
        others report."""
        others = list(truthful_profile)
        others[1] = alpha_lies(truthful_profile[1], [2.0])[0]
        lies = alpha_lies(truthful_profile[0],
                          np.linspace(0.7, 1.3, 9))
        outcome = misreport_gain(fair_share, truthful_profile, 0, lies,
                                 reported_others=others)
        assert outcome.gain <= 1e-5

    def test_gain_measured_with_true_utility(self, fair_share,
                                             truthful_profile):
        outcome = misreport_gain(fair_share, truthful_profile, 0, [])
        assert outcome.gain == 0.0
        assert outcome.best_misreport_utility == pytest.approx(
            outcome.truthful_utility)


class TestScaledReports:
    def test_builder(self):
        base = LinearUtility(gamma=0.5)
        reports = scaled_reports(
            base, [0.5, 2.0],
            lambda u, s: LinearUtility(gamma=u.gamma * s))
        assert [r.gamma for r in reports] == [0.25, 1.0]
