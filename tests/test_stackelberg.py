"""Tests for Stackelberg computation."""

import pytest

from repro.game import stackelberg
from repro.game.nash import solve_nash
from repro.game.stackelberg import (
    follower_equilibrium,
    leader_advantage,
    solve_stackelberg,
)
from repro.game.witnesses import witness_profile
from repro.users.families import LinearUtility


class TestFollowerEquilibrium:
    def test_leader_rate_respected(self, fair_share, linear_profile3):
        outcome = follower_equilibrium(fair_share, linear_profile3,
                                       leader=0, leader_rate=0.17)
        assert outcome.rates[0] == pytest.approx(0.17)
        assert outcome.converged

    def test_followers_best_respond(self, fair_share, linear_profile3):
        from repro.game.best_response import utility_improvement

        outcome = follower_equilibrium(fair_share, linear_profile3,
                                       leader=0, leader_rate=0.17)
        for i in (1, 2):
            gain = utility_improvement(fair_share, linear_profile3[i],
                                       outcome.rates, i)
            assert gain <= 1e-6

    def test_utilities_reported_for_everyone(self, fair_share,
                                             linear_profile3):
        outcome = follower_equilibrium(fair_share, linear_profile3,
                                       leader=1, leader_rate=0.1)
        assert outcome.utilities.shape == (3,)


class TestSolveStackelberg:
    def test_leader_index_validated(self, fair_share, linear_profile3):
        with pytest.raises(ValueError):
            solve_stackelberg(fair_share, linear_profile3, leader=7)

    def test_fs_stackelberg_is_nash(self, fair_share):
        """Theorem 5.2: under FS the leader's optimum is her Nash rate."""
        profile = [LinearUtility(gamma=0.25), LinearUtility(gamma=0.4)]
        nash = solve_nash(fair_share, profile)
        stack = solve_stackelberg(fair_share, profile, leader=0,
                                  n_scan=21)
        assert stack.leader_utility == pytest.approx(
            float(nash.utilities[0]), abs=1e-5)

    def test_fifo_witness_leader_gains(self, fifo):
        profile = witness_profile()
        advantage = leader_advantage(fifo, profile, leader=0, n_scan=21)
        assert advantage > 0.1

    def test_fs_witness_no_advantage(self, fair_share):
        profile = witness_profile()
        advantage = leader_advantage(fair_share, profile, leader=0,
                                     n_scan=17)
        assert advantage == pytest.approx(0.0, abs=1e-4)

    def test_advantage_nonnegative(self, fifo):
        profile = [LinearUtility(gamma=0.25), LinearUtility(gamma=0.35)]
        advantage = leader_advantage(fifo, profile, leader=1, n_scan=13)
        assert advantage >= 0.0


class TestWarmStartedScan:
    """Each follower solve of the outer scan starts from the follower
    equilibrium at the nearest commitment already solved."""

    @staticmethod
    def _scan(monkeypatch, allocation, profile, cold):
        """``solve_stackelberg`` plus the follower iterations it spent;
        ``cold`` drops every warm start (every solve from the default
        start, the reference)."""
        original = stackelberg.follower_equilibrium
        iterations = []

        def counted(allocation, profile, leader, leader_rate, r0=None,
                    tol=1e-9):
            outcome = original(allocation, profile, leader, leader_rate,
                               r0=None if cold else r0, tol=tol)
            iterations.append(outcome.iterations)
            return outcome

        with monkeypatch.context() as patch:
            patch.setattr(stackelberg, "follower_equilibrium", counted)
            result = solve_stackelberg(allocation, profile, leader=0,
                                       n_scan=17)
        return result, sum(iterations)

    @pytest.mark.parametrize("name", ["fifo", "fair_share"])
    def test_warm_matches_cold_with_fewer_iterations(self, monkeypatch,
                                                     request, name):
        allocation = request.getfixturevalue(name)
        profile = [LinearUtility(gamma=0.25), LinearUtility(gamma=0.35),
                   LinearUtility(gamma=0.3)]
        warm, warm_iters = self._scan(monkeypatch, allocation, profile,
                                      cold=False)
        cold, cold_iters = self._scan(monkeypatch, allocation, profile,
                                      cold=True)
        assert warm.leader_utility == pytest.approx(cold.leader_utility,
                                                    abs=1e-8)
        assert warm.evaluations == cold.evaluations
        assert warm_iters < cold_iters
