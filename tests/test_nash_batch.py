"""The lockstep Nash solver: ``solve_nash_many`` and its row-wise layers.

``solve_nash_many`` must return exactly what a loop of ``solve_nash``
calls returns — every ``NashResult`` field bit for bit — on every
allocation kind (closed-form row overrides, networks and subsystems
composed of them, the default stacked row evaluator), with rows that
converge at different iterations and rows that run out of
iterations.  The row building
blocks underneath (row evaluators, row utility evaluation, the
per-row fallback when an objective raises) are pinned here too, and
so are the solver counters the two batched experiments report.  Both
solvers keep a per-problem best-response memo; they are checked
against the memo-free composition of the damped iteration and the
certificate.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.priority import PriorityAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.experiments import t5_stackelberg
from repro.experiments.registry import run_experiments
from repro.game.best_response import (
    best_response,
    best_response_map,
    best_response_map_rows,
    best_response_rows,
)
from repro.game.nash import (
    _package,
    default_start,
    find_all_nash,
    solve_nash,
    solve_nash_many,
)
from repro.game.revelation import misreport_gain, nash_mechanism
from repro.game.witnesses import fifo_multiplicity_witness
from repro.network.model import NetworkAllocation
from repro.numerics.instrumentation import set_vectorized, track_solver
from repro.numerics.iterate import damped_fixed_point
from repro.numerics.rng import default_rng
from repro.users.families import (
    DelayBasedUtility,
    ExponentialUtility,
    LinearUtility,
    MonotoneTransformedUtility,
    PowerUtility,
)
from repro.users.profiles import random_mixed_profile
from repro.users.utility import value_grid_rows


def bits(value) -> bytes:
    """The exact float64 bit pattern of a scalar or array."""
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_same_result(actual, expected):
    """Every NashResult field equal, floats compared bit for bit."""
    assert bits(actual.rates) == bits(expected.rates)
    assert bits(actual.congestion) == bits(expected.congestion)
    assert bits(actual.utilities) == bits(expected.utilities)
    assert bits(actual.max_gain) == bits(expected.max_gain)
    assert actual.iterations == expected.iterations
    assert actual.converged == expected.converged
    assert actual.method == expected.method


def stacked_rows(allocation, rates, i):
    """The row-evaluator oracle: one ``grid_evaluator`` per row."""
    evaluators = [allocation.grid_evaluator(row.copy(), i) for row in rates]

    def evaluate(rows, xs):
        return np.stack([evaluators[k](grid) for k, grid in zip(rows, xs)])

    return evaluate


def two_switch_network():
    """Two switches (FIFO, Fair Share); users 0 and 2 cross both."""
    return NetworkAllocation(
        [ProportionalAllocation(), FairShareAllocation()],
        routes=[(0, 1), (0,), (0, 1), (1,)])


def subsystem():
    """Fair Share with user 1 frozen: a 3-free-user subsystem."""
    return FairShareAllocation().subsystem({1: 0.12})


#: Closed-form row evaluators (proportional, Fair Share, and the
#: network and subsystem compositions of them) and the default
#: stacking of one-row evaluators (priority).
ALLOCATIONS = {
    "proportional": (ProportionalAllocation, None),
    "fair-share": (FairShareAllocation, None),
    "network": (two_switch_network, 4),
    "subsystem": (subsystem, 3),
    "priority": (PriorityAllocation, None),
}


def draw_problems(seed, n_users, n_rows, allocation):
    """One mixed profile per row (some rows share it) and random starts."""
    generator = default_rng(seed)
    shared = random_mixed_profile(n_users, generator)
    profiles = [shared if generator.uniform() < 0.5
                else random_mixed_profile(n_users, generator)
                for _ in range(n_rows)]
    capacity = allocation.curve.capacity
    starts = [generator.dirichlet(np.ones(n_users))
              * generator.uniform(0.05, 0.9 * capacity)
              for _ in range(n_rows)]
    return profiles, starts


def assert_many_matches_loop(allocation, profiles, starts, max_iter):
    expected = [solve_nash(allocation, profile, r0=start, max_iter=max_iter)
                for profile, start in zip(profiles, starts)]
    actual = solve_nash_many(allocation, profiles, starts, max_iter=max_iter)
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert_same_result(got, want)
    return actual


class TestSolveNashManyMatchesLoop:
    @pytest.mark.parametrize("kind", sorted(ALLOCATIONS))
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n_rows=st.integers(1, 4),
           n_users=st.integers(1, 4), max_iter=st.integers(1, 30))
    def test_bitwise_equal(self, kind, seed, n_rows, n_users, max_iter):
        make, fixed_users = ALLOCATIONS[kind]
        allocation = make()
        n = fixed_users if fixed_users is not None else n_users
        profiles, starts = draw_problems(seed, n, n_rows, allocation)
        assert_many_matches_loop(allocation, profiles, starts, max_iter)

    def test_rows_retire_at_different_iterations(self):
        fs = FairShareAllocation()
        profiles, starts = draw_problems(2, 2, 5, fs)
        results = assert_many_matches_loop(fs, profiles, starts,
                                           max_iter=33)
        assert [result.iterations for result in results] == \
            [27, 33, 31, 30, 32]
        assert [result.converged for result in results] == \
            [True, False, True, True, True]

    def test_default_start_and_wrapped_utilities(self):
        """``None`` starts use ``default_start``; wrappers without a
        ``value_grid`` override go through the grouped row path."""
        base = LinearUtility(gamma=0.4)
        profiles = [
            [DelayBasedUtility(PowerUtility(gamma=0.5, q=1.2)), base],
            [MonotoneTransformedUtility(base, math.atan), base],
            [base, PowerUtility(gamma=0.6, q=0.9)],
        ]
        assert_many_matches_loop(FairShareAllocation(), profiles,
                                 [None, None, [0.2, 0.3]], max_iter=40)

    def test_lie_family_stacked_utilities(self):
        """Distinct Exponential members per row (the misreport scan)."""
        truth = ExponentialUtility(alpha=3.0, beta=6.0, gamma=1.0, nu=6.0,
                                   r_ref=0.2, c_ref=0.5)
        other = ExponentialUtility(alpha=1.8, beta=6.0, gamma=1.0, nu=6.0,
                                   r_ref=0.15, c_ref=0.4)
        profiles = [[ExponentialUtility(alpha=3.0 * s, beta=6.0, gamma=1.0,
                                        nu=6.0, r_ref=0.2, c_ref=0.5), other]
                    for s in (0.3, 1.0, 1.1, 4.0)]
        profiles[1][0] = truth
        for allocation in (FairShareAllocation(), ProportionalAllocation()):
            assert_many_matches_loop(allocation, profiles, [None] * 4,
                                     max_iter=60)

    @pytest.mark.parametrize("mode", ["off", "auto"])
    def test_scalar_modes_match_loop(self, mode):
        set_vectorized(mode)
        try:
            fifo = ProportionalAllocation()
            profiles, starts = draw_problems(11, 2, 3, fifo)
            assert_many_matches_loop(fifo, profiles, starts, max_iter=10)
        finally:
            set_vectorized(None)

    def test_counters_match_loop(self):
        fs = FairShareAllocation()
        profiles, starts = draw_problems(5, 3, 4, fs)
        with track_solver() as looped:
            for profile, start in zip(profiles, starts):
                solve_nash(fs, profile, r0=start, max_iter=20)
        with track_solver() as batched:
            solve_nash_many(fs, profiles, starts, max_iter=20)
        assert batched.objective_evals == looped.objective_evals
        assert batched.congestion_evals == looped.congestion_evals
        assert batched.grid_calls == looped.grid_calls

    def test_rejects_mismatched_inputs(self):
        fs = FairShareAllocation()
        profile = [LinearUtility(gamma=0.4)] * 2
        with pytest.raises(ValueError, match="starts"):
            solve_nash_many(fs, [profile, profile], [None])
        with pytest.raises(ValueError, match="differ in length"):
            solve_nash_many(fs, [profile, profile[:1]], [None, None])
        assert solve_nash_many(fs, [], []) == []


def memo_free(allocation, profile, r0=None, max_iter=400):
    """The oracle: ``solve_nash`` without a best-response memo, i.e.
    the damped iteration of the plain map and a fresh certificate."""
    start = (default_start(len(profile), allocation) if r0 is None
             else np.asarray(r0, dtype=float))
    outcome = damped_fixed_point(
        lambda r: best_response_map(allocation, profile, r), start,
        damping=0.5, tol=1e-9, max_iter=max_iter)
    return _package(allocation, profile, outcome.x, outcome.converged,
                    outcome.iterations, method="best-response")


def counted(function, *args, **kwargs):
    """``function(*args, **kwargs)`` with its solver counters."""
    with track_solver() as counters:
        result = function(*args, **kwargs)
    return result, (counters.objective_evals, counters.congestion_evals,
                    counters.grid_calls)


#: The module, not the function the package re-exports under its name.
BEST_RESPONSE_MODULE = importlib.import_module("repro.game.best_response")


class TestBestResponseMemo:
    """``solve_nash`` and ``solve_nash_many`` reuse best responses whose
    opponents' rates they have already seen; every result field stays
    bit for bit what the memo-free solve returns."""

    def test_one_user_subsystem_makes_one_best_response(self, monkeypatch):
        calls = []
        original = BEST_RESPONSE_MODULE.best_response

        def spy(*args, **kwargs):
            calls.append(args[3])
            return original(*args, **kwargs)

        sub = FairShareAllocation().subsystem({0: 0.3})
        profile = [PowerUtility(gamma=0.5, q=1.1)]
        expected = memo_free(sub, profile)
        assert expected.iterations > 2
        monkeypatch.setattr(BEST_RESPONSE_MODULE, "best_response", spy)
        actual, counts = counted(solve_nash, sub, profile)
        assert_same_result(actual, expected)
        assert calls == [0]
        # The lone free user's response ignores her own rate, so every
        # row of a batch repeats the same single best response.
        starts = [None, [0.1], [0.5]]
        results, batched_counts = counted(solve_nash_many, sub,
                                          [profile] * 3, starts)
        assert batched_counts == tuple(3 * count for count in counts)
        for result, start in zip(results, starts):
            assert_same_result(result, memo_free(sub, profile, r0=start))

    def test_cycling_fair_share_witness_start_hits(self):
        """The Theorem-4 Fair Share witness start that runs all 400
        iterations: its iterates cycle exactly, so most of its best
        responses are repeats."""
        witness = fifo_multiplicity_witness(a=0.15, b=0.45)
        profile = [witness, witness]
        fs = FairShareAllocation()
        start = [0.03552157425297607, 0.03928162766578544]
        expected, oracle_counts = counted(memo_free, fs, profile, r0=start)
        assert (expected.iterations, expected.converged) == (400, False)
        actual, counts = counted(solve_nash, fs, profile, r0=start)
        assert_same_result(actual, expected)
        assert counts[0] < oracle_counts[0] // 2
        others = [[0.7019902430855344, 0.2017942593379851], start]
        batched, batched_counts = counted(
            solve_nash_many, fs, [profile] * 2, others)
        looped, looped_counts = counted(
            lambda: [solve_nash(fs, profile, r0=r0) for r0 in others])
        assert batched_counts == looped_counts
        for got, want in zip(batched, looped):
            assert_same_result(got, want)

    def test_max_iter_certificate_is_fresh(self):
        """A solve that runs out of iterations returns an iterate it
        never mapped, so its certificate is computed afresh: with no
        repeats in the map, the counters equal the memo-free ones."""
        fifo = ProportionalAllocation()
        profile = [LinearUtility(gamma=0.3), PowerUtility(gamma=0.5, q=1.1)]
        expected, oracle_counts = counted(memo_free, fifo, profile,
                                          r0=[0.05, 0.6], max_iter=4)
        assert not expected.converged
        actual, counts = counted(solve_nash, fifo, profile, r0=[0.05, 0.6],
                                 max_iter=4)
        assert_same_result(actual, expected)
        assert counts == oracle_counts

    @pytest.mark.parametrize("kind", sorted(ALLOCATIONS))
    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000), n_rows=st.integers(1, 3),
           n_users=st.integers(1, 4), max_iter=st.integers(1, 60))
    def test_random_problems_match_memo_free(self, kind, seed, n_rows,
                                             n_users, max_iter):
        make, fixed_users = ALLOCATIONS[kind]
        allocation = make()
        n = fixed_users if fixed_users is not None else n_users
        profiles, starts = draw_problems(seed, n, n_rows, allocation)
        expected = [memo_free(allocation, profile, r0=start,
                              max_iter=max_iter)
                    for profile, start in zip(profiles, starts)]
        batched = solve_nash_many(allocation, profiles, starts,
                                  max_iter=max_iter)
        for profile, start, got, want in zip(profiles, starts, batched,
                                             expected):
            assert_same_result(got, want)
            assert_same_result(solve_nash(allocation, profile, r0=start,
                                          max_iter=max_iter), want)

    def test_t5_leader_advantages_pinned(self):
        """t5's fast leader-advantage table, as recorded before the
        memo and the shared full-game solve."""
        report = t5_stackelberg.run(seed=0, fast=True)
        assert [[cell.hex() if isinstance(cell, float) else cell
                 for cell in row] for row in report.tables[0].rows] == [
            ["witness (multi-eq under FIFO)", 0, "0x1.6131de4120b80p-1",
             "0x1.0000000000000p-47"],
            ["witness (multi-eq under FIFO)", 1, "0x1.6131de4120b80p-1",
             "0x1.0000000000000p-47"],
        ]


class TestMultistartAndMisreport:
    #: ``find_all_nash`` on the Theorem-4 FIFO witness (10 starts), as
    #: the one-start-at-a-time solver found it.  Seed 1 finds a single
    #: equilibrium (t4's known seed-dependent FAIL); the batched
    #: multistart must reproduce that, not fix it.
    WITNESS_EQUILIBRIA = {
        0: [[0.28597331242165996, 0.3056628057753094],
            [0.2798849586968013, 0.3118088530350489],
            [0.3047136322599478, 0.2869160034917426],
            [0.1478925747339278, 0.45236550792991326]],
        1: [[0.2936503717980668, 0.2979520213057109]],
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fifo_witness(self, seed):
        witness = fifo_multiplicity_witness(a=0.15, b=0.45)
        found = find_all_nash(ProportionalAllocation(), [witness, witness],
                              n_starts=10, rng=default_rng(seed),
                              gain_tol=1e-8, distinct_tol=5e-3)
        assert [eq.rates.tolist() for eq in found] == \
            self.WITNESS_EQUILIBRIA[seed]

    def test_misreport_gain_matches_mechanism_loop(self):
        fs = FairShareAllocation()
        profile = [LinearUtility(gamma=0.3), PowerUtility(gamma=0.5, q=1.1)]
        lies = [LinearUtility(gamma=g) for g in (0.1, 0.25, 0.6)]
        outcome = misreport_gain(fs, profile, 0, lies)
        truthful = nash_mechanism(fs, profile)
        values = []
        for lie in lies:
            reported = nash_mechanism(fs, [lie, profile[1]])
            values.append(profile[0].value(float(reported.rates[0]),
                                           float(reported.congestion[0])))
        truth_value = profile[0].value(float(truthful.rates[0]),
                                       float(truthful.congestion[0]))
        best = max([truth_value] + values)
        assert bits(outcome.truthful_utility) == bits(truth_value)
        assert bits(outcome.best_misreport_utility) == bits(best)
        expected_index = (-1 if best == truth_value
                          else values.index(best))
        assert outcome.best_report_index == expected_index


class _GridlessUtility(LinearUtility):
    """A utility whose batched evaluation always fails with ``TypeError``.

    A lone best response falls back to the scalar scan for it; in a
    row batch only its row may leave the lockstep zoom.
    """

    def value_grid(self, rs, cs):
        raise TypeError("no batched form")


class TestRowFallback:
    def test_raising_row_falls_back_alone(self):
        fs = FairShareAllocation()
        rates = np.array([[0.1, 0.2, 0.3], [0.2, 0.1, 0.25],
                          [0.15, 0.15, 0.15]])
        utilities = [LinearUtility(gamma=0.4), _GridlessUtility(gamma=0.4),
                     PowerUtility(gamma=0.5, q=1.2)]
        with track_solver() as batched:
            results = best_response_rows(fs, utilities, rates, 1)
        with track_solver() as looped:
            expected = [best_response(fs, u, row, 1)
                        for u, row in zip(utilities, rates)]
        for got, want in zip(results, expected):
            assert bits(got.x) == bits(want.x)
            assert bits(got.value) == bits(want.value)
            assert got.evaluations == want.evaluations
            assert got.grid_calls == want.grid_calls
        # Only the raising row took the scalar scan (no grid calls).
        assert [result.grid_calls == 0 for result in results] == \
            [False, True, False]
        assert batched.objective_evals == looped.objective_evals
        assert batched.grid_calls == looped.grid_calls

    def test_map_rows_matches_map(self):
        fifo = ProportionalAllocation()
        rates = np.array([[0.1, 0.2], [0.3, 0.1], [0.05, 0.5]])
        profiles = [[LinearUtility(gamma=0.3), _GridlessUtility(gamma=0.5)],
                    [LinearUtility(gamma=0.3), LinearUtility(gamma=0.5)],
                    [PowerUtility(gamma=0.5, q=1.2), LinearUtility(0.5)]]
        actual = best_response_map_rows(fifo, profiles, rates)
        for row, profile, start in zip(actual, profiles, rates):
            assert bits(row) == bits(best_response_map(fifo, profile, start))

    def test_map_rows_validates_shapes(self):
        fifo = ProportionalAllocation()
        profile = [LinearUtility(gamma=0.3)] * 2
        with pytest.raises(ValueError, match="rate rows"):
            best_response_map_rows(fifo, [profile], np.zeros((2, 2)))
        with pytest.raises(ValueError, match="utilities"):
            best_response_map_rows(fifo, [profile[:1]], np.zeros((1, 2)))


class TestRowEvaluators:
    """Closed-form ``grid_evaluator_rows`` overrides vs the default
    stacking of one-row evaluators, bit for bit."""

    @staticmethod
    def assert_rows_match(allocation, rates, i, xs):
        override = allocation.grid_evaluator_rows(rates, i)
        stacked = stacked_rows(allocation, rates, i)
        rows = np.arange(rates.shape[0])
        assert bits(override(rows, xs)) == bits(stacked(rows, xs))
        subset = rows[::2]
        assert bits(override(subset, xs[subset])) == \
            bits(stacked(subset, xs[subset]))

    @staticmethod
    def candidates(rates, i):
        """A grid through every opponent rate (exact ties) and beyond."""
        opponents = np.delete(rates, i, axis=1)
        ladder = np.linspace(0.0, 1.2, 17)
        return np.array([np.sort(np.concatenate((ladder, row)))
                         for row in opponents])

    # Rows crossing capacity at different ladder positions (k_bad),
    # tied opponents, and a fully stable row.
    LADDERS = np.array([[0.1, 0.05, 0.05, 0.05, 0.1],
                        [0.05, 0.3, 0.3, 0.3, 0.31],
                        [0.4, 0.5, 0.1, 0.1, 0.2],
                        [0.01, 0.02, 0.9, 0.9, 0.9],
                        [0.2, 0.2, 0.2, 0.2, 0.2]])

    @pytest.mark.parametrize("cls", [FairShareAllocation,
                                     ProportionalAllocation])
    @pytest.mark.parametrize("i", [0, 2, 4])
    def test_ties_and_overload(self, cls, i):
        self.assert_rows_match(cls(), self.LADDERS, i,
                               self.candidates(self.LADDERS, i))

    def test_fair_share_k_bad_differs_by_row(self):
        fs = FairShareAllocation()
        opp = np.delete(self.LADDERS, 0, axis=1)
        k_bad = []
        for row in opp:
            s = np.sort(row)
            loads = (opp.shape[1] + 1 - np.arange(s.size)) * s + \
                np.concatenate(([0.0], np.cumsum(s)[:-1]))
            k_bad.append(int(np.searchsorted(loads >= 1.0, True)))
        assert len(set(k_bad)) >= 3
        self.assert_rows_match(fs, self.LADDERS, 0,
                               self.candidates(self.LADDERS, 0))

    @pytest.mark.parametrize("n_users", [20, 80])
    def test_long_ladders(self, n_users):
        """Pairwise-summed opponent totals; long Fair Share ladders."""
        generator = default_rng(n_users)
        rates = generator.dirichlet(np.ones(n_users), size=3) * \
            np.array([[0.5], [0.9], [1.3]])
        for cls in (FairShareAllocation, ProportionalAllocation):
            self.assert_rows_match(cls(), rates, 3,
                                   self.candidates(rates, 3))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n_users=st.integers(1, 6),
           n_rows=st.integers(1, 5), tie=st.booleans())
    def test_random_profiles(self, seed, n_users, n_rows, tie):
        generator = default_rng(seed)
        rates = generator.uniform(0.0, 0.5, size=(n_rows, n_users))
        if tie and n_users > 1:
            rates[:, -1] = rates[:, 0]
        i = int(generator.integers(n_users))
        for cls in (FairShareAllocation, ProportionalAllocation):
            self.assert_rows_match(cls(), rates, i,
                                   self.candidates(rates, i))

    @pytest.mark.parametrize("make,i", [(subsystem, 1),
                                        (two_switch_network, 0),
                                        (two_switch_network, 3)])
    def test_compositions_match_one_row_evaluators(self, make, i):
        allocation = make()
        n = 3 if make is subsystem else 4
        rates = np.array([[0.1, 0.2, 0.3, 0.2][:n], [0.3, 0.3, 0.05, 0.1][:n]])
        self.assert_rows_match(allocation, rates, i,
                               np.tile(np.linspace(0.0, 0.8, 9), (2, 1)))


class TestValueGridRows:
    def test_shared_object_is_one_call(self):
        rs = np.tile(np.linspace(0.01, 0.6, 7), (3, 1))
        cs = rs * 1.7
        utility = ExponentialUtility(alpha=2.0, beta=5.0, gamma=1.0, nu=4.0)
        got = value_grid_rows([utility] * 3, rs, cs)
        assert bits(got) == bits(utility.value_grid(rs, cs))

    def test_stacked_exponential_matches_rows(self):
        rs = np.tile(np.linspace(0.01, 0.6, 7), (4, 1))
        cs = np.array([np.linspace(0.0, 150.0, 7)] * 2
                      + [np.linspace(0.1, 2.0, 7)] * 2)
        cs[0, 3] = math.inf
        cs[2, 1] = math.nan
        members = [ExponentialUtility(alpha=a, beta=b, gamma=g, nu=nu,
                                      r_ref=0.2 * g, c_ref=0.5 / g)
                   for a, b, g, nu in ((0.6, 6.0, 1.0, 6.0),
                                       (3.0, 5.3, 0.7, 6.1),
                                       (3.3, 7.1, 1.3, 2.9),
                                       (15.0, 0.9, 0.3, 11.0))]
        got = value_grid_rows(members, rs, cs)
        for k, member in enumerate(members):
            assert bits(got[k]) == bits(member.value_grid(rs[k], cs[k]))

    def test_mixed_families_grouped(self):
        rs = np.tile(np.linspace(0.01, 0.6, 5), (4, 1))
        cs = rs * 2.0
        linear = LinearUtility(gamma=0.5)
        members = [linear, PowerUtility(gamma=0.4, q=1.3), linear,
                   DelayBasedUtility(linear)]
        got = value_grid_rows(members, rs, cs)
        for k, member in enumerate(members):
            assert bits(got[k]) == bits(member.value_grid(rs[k], cs[k]))


class TestBatchedExperimentCounters:
    """The batched multistart and misreport scans record every row's
    work, certification included: the counters equal the
    one-problem-at-a-time totals.  Best responses reused from a
    solve's memo are work not done and are not counted."""

    def test_t4_and_t6_solver_counters(self):
        set_vectorized("on")
        try:
            t4, t6 = run_experiments(["t4_uniqueness", "t6_revelation"],
                                     seed=0, fast=True)
        finally:
            set_vectorized(None)
        counts = [(report.summary["solver_objective_evals"],
                   report.summary["solver_congestion_evals"],
                   report.summary["solver_grid_calls"])
                  for report in (t4, t6)]
        assert counts == [(3622050, 3622050, 99060),
                          (2176844, 2176844, 59544)]
