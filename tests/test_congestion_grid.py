"""Equivalence goldens for the batched allocation evaluation core.

Every discipline's ``congestion_grid`` / ``congestion_many`` must agree
with a scalar ``congestion_i`` / ``congestion`` loop — including at
ties, at (and beyond) capacity, through subsystems and composed over
network routes — and the analytic ``gradient_i`` / ``second_gradient_i``
overrides must match the numeric finite-difference defaults.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disciplines.base import AllocationFunction
from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.disciplines.registry import available_disciplines, make_discipline
from repro.disciplines.separable import SeparableAllocation
from repro.network.model import NetworkAllocation
from repro.numerics.rng import default_rng

#: Batched-vs-scalar congestion values must agree essentially exactly.
GRID_RTOL = 1e-12

ALL_NAMES = available_disciplines()
VECTOR_NAMES = [name for name in ALL_NAMES
                if make_discipline(name).vectorized_grid]


def scalar_grid(allocation, rates, i, xs):
    """The scalar oracle: one congestion_i call per candidate."""
    base = np.array(rates, dtype=float)
    out = np.empty(len(xs))
    for k, x in enumerate(np.asarray(xs, dtype=float).tolist()):
        base[i] = x
        out[k] = allocation.congestion_i(base, i)
    return out


def assert_matches(actual, expected):
    """Same infinity pattern; finite entries equal to GRID_RTOL."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    assert np.array_equal(np.isinf(actual), np.isinf(expected))
    assert not np.any(np.isnan(actual))
    finite = np.isfinite(expected)
    # atol floor: the grid and scalar paths sum rate vectors in
    # different orders, so near-zero congestions may differ by an ulp.
    np.testing.assert_allclose(actual[finite], expected[finite],
                               rtol=GRID_RTOL, atol=1e-14)


def seeded_profiles(n, n_profiles=4, scale=0.85, seed=7):
    """Random interior profiles plus a hand-built tie-heavy one."""
    generator = default_rng(seed + n)
    out = []
    for _ in range(n_profiles):
        direction = generator.dirichlet(np.ones(n))
        out.append(direction * generator.uniform(0.2, scale))
    tied = np.resize([0.1, 0.1, 0.25], n)
    out.append(tied)
    return out


def candidate_rates(rates, i):
    """Candidates spanning interior, ties, capacity, and overload.

    The near-capacity candidate keeps a robust margin: the grid and the
    scalar path sum the rate vector in different orders, and exactly at
    the pole a one-ulp total difference is amplified without bound.
    """
    opponents = np.delete(np.asarray(rates, dtype=float), i)
    headroom = max(1.0 - float(opponents.sum()), 0.0)
    return np.concatenate((
        np.linspace(1e-6, 0.6, 17),
        opponents,                          # exact ties with opponents
        [max(headroom - 1e-2, 1e-6),        # just inside capacity
         headroom + 1e-9,                   # robustly at/over capacity
         headroom + 0.05, 1.5],             # clearly beyond
    ))


class TestCongestionGridMatchesScalar:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_grid_equals_scalar_loop(self, name, n):
        allocation = make_discipline(name)
        for rates in seeded_profiles(n):
            for i in (0, n - 1):
                xs = candidate_rates(rates, i)
                assert_matches(allocation.congestion_grid(rates, i, xs),
                               scalar_grid(allocation, rates, i, xs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_grid_evaluator_matches_scalar_loop(self, name):
        # The reusable evaluator (opponent precomputation hoisted)
        # must agree with a fresh congestion_grid call per batch.
        allocation = make_discipline(name)
        rates = np.array([0.3, 0.2, 0.1])
        evaluate = allocation.grid_evaluator(rates, 1)
        for xs in (np.linspace(0.05, 0.4, 9),
                   np.linspace(0.01, 1.2, 7),
                   np.array([0.1, 0.3])):      # exact opponent ties
            assert_matches(evaluate(xs),
                           scalar_grid(allocation, rates, 1, xs))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_grid_ignores_own_stale_rate(self, name):
        # rates[i] must be irrelevant to the grid values.
        allocation = make_discipline(name)
        rates = np.array([0.3, 0.2, 0.1])
        xs = np.linspace(0.05, 0.4, 9)
        poked = rates.copy()
        poked[1] = 0.77
        assert_matches(allocation.congestion_grid(poked, 1, xs),
                       allocation.congestion_grid(rates, 1, xs))


class TestCongestionManyMatchesScalar:
    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_many_equals_row_loop(self, name, n):
        allocation = make_discipline(name)
        generator = default_rng(13 + n)
        batch = generator.uniform(0.0, 1.6 / n, size=(24, n))
        batch[0] = 0.1            # symmetric row (all ties)
        batch[1, 0] = 1.2         # single overloaded sender
        expected = np.stack([allocation.congestion(row) for row in batch])
        assert_matches(allocation.congestion_many(batch), expected)


class TestSubsystemBatching:
    @pytest.mark.parametrize("name", ["fair-share", "fifo", "priority"])
    def test_subsystem_grid_equals_scalar_loop(self, name):
        allocation = make_discipline(name).subsystem({0: 0.15, 2: 0.1})
        free = np.array([0.2, 0.3])
        xs = np.concatenate((np.linspace(1e-6, 0.5, 11), [0.15, 0.8]))
        for i in range(free.size):
            assert_matches(allocation.congestion_grid(free, i, xs),
                           scalar_grid(allocation, free, i, xs))

    @pytest.mark.parametrize("name", ["fair-share", "fifo"])
    def test_subsystem_grid_evaluator(self, name):
        allocation = make_discipline(name).subsystem({0: 0.15, 2: 0.1})
        free = np.array([0.2, 0.3])
        evaluate = allocation.grid_evaluator(free, 0)
        xs = np.linspace(1e-6, 0.6, 13)
        assert_matches(evaluate(xs), scalar_grid(allocation, free, 0, xs))

    @pytest.mark.parametrize("name", ["fair-share", "fifo"])
    def test_subsystem_many_equals_row_loop(self, name):
        allocation = make_discipline(name).subsystem({1: 0.25})
        generator = default_rng(31)
        batch = generator.uniform(0.0, 0.5, size=(12, 3))
        expected = np.stack([allocation.congestion(row) for row in batch])
        assert_matches(allocation.congestion_many(batch), expected)


class TestAnalyticGradients:
    """Closed-form gradient rows vs the numeric base-class defaults."""

    INTERIOR = np.array([0.08, 0.22, 0.31, 0.14])

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation(),
        SeparableAllocation()], ids=lambda a: a.name)
    def test_gradient_matches_numeric(self, allocation):
        for i in range(self.INTERIOR.size):
            analytic = allocation.gradient_i(self.INTERIOR, i)
            numeric = AllocationFunction.gradient_i(
                allocation, self.INTERIOR, i)
            np.testing.assert_allclose(analytic, numeric,
                                       rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation(),
        SeparableAllocation()], ids=lambda a: a.name)
    def test_second_gradient_matches_numeric(self, allocation):
        for i in range(self.INTERIOR.size):
            analytic = allocation.second_gradient_i(self.INTERIOR, i)
            numeric = AllocationFunction.second_gradient_i(
                allocation, self.INTERIOR, i)
            np.testing.assert_allclose(analytic, numeric,
                                       rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("allocation", [
        FairShareAllocation(), ProportionalAllocation()],
        ids=lambda a: a.name)
    def test_gradient_matches_jacobian_row(self, allocation):
        jac = allocation.jacobian(self.INTERIOR)
        for i in range(self.INTERIOR.size):
            np.testing.assert_allclose(
                allocation.gradient_i(self.INTERIOR, i), jac[i],
                rtol=1e-6, atol=1e-8)

    def test_overloaded_gradient_is_infinite(self):
        # Fair Share protects the low-rate users, so only the heavy
        # sender (whose own ladder class is unstable) sees inf.
        fs = FairShareAllocation()
        rates = np.array([0.2, 0.9, 0.3])      # total beyond capacity
        assert np.isinf(fs.gradient_i(rates, 1)[1])
        assert np.all(np.isfinite(fs.gradient_i(rates, 0)))

    def test_tied_rates_gradient(self):
        # Ties exercise the strict r_j < r_i split of the FS Jacobian.
        # C_i has a kink at exact ties, so the oracle here is the
        # analytic jacobian row, not a finite difference straddling it.
        fs = FairShareAllocation()
        rates = np.array([0.2, 0.2, 0.2])
        jac = fs.jacobian(rates)
        for i in range(3):
            np.testing.assert_allclose(fs.gradient_i(rates, i), jac[i],
                                       rtol=1e-12, atol=0.0)


class TestGenericFallback:
    """The default (scalar-loop) grid must stay bit-identical."""

    class Halving(AllocationFunction):
        name = "halving-stub"

        def congestion(self, rates):
            r = np.asarray(rates, dtype=float)
            return r / (2.0 - np.sum(r)) if np.sum(r) < 2.0 else \
                np.full(r.size, np.inf)

    def test_default_grid_bit_identical(self):
        stub = self.Halving()
        assert not stub.vectorized_grid
        rates = np.array([0.4, 0.6, 0.2])
        xs = np.linspace(0.0, 2.5, 13)
        grid = stub.congestion_grid(rates, 1, xs)
        oracle = scalar_grid(stub, rates, 1, xs)
        assert np.array_equal(grid, oracle)

    def test_default_many_bit_identical(self):
        stub = self.Halving()
        batch = np.array([[0.1, 0.2, 0.3], [1.0, 0.9, 0.5]])
        many = stub.congestion_many(batch)
        rows = np.stack([stub.congestion(row) for row in batch])
        assert np.array_equal(many, rows)


@st.composite
def networks(draw):
    """A random network with dyadic rates and power-of-two speeds.

    Dyadic rates make every load sum exact in any order, so the scalar
    and composed paths see the same loads and the same capacity
    verdicts; 1.0 capacity is reachable, so overloaded hops occur.
    """
    n_switches = draw(st.integers(1, 3))
    n_users = draw(st.integers(1, 5))
    routes = []
    for _ in range(n_users):
        order = draw(st.permutations(range(n_switches)))
        routes.append(order[:draw(st.integers(1, n_switches))])
    switches = [make_discipline(name) for name in draw(st.lists(
        st.sampled_from(["fair-share", "fifo"]),
        min_size=n_switches, max_size=n_switches))]
    speeds = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                           min_size=n_switches, max_size=n_switches))
    rates = np.array(draw(st.lists(st.integers(0, 40), min_size=n_users,
                                   max_size=n_users)), dtype=float) / 64.0
    return NetworkAllocation(switches, routes, speeds=speeds), rates


#: Dyadic candidates from zero to past every switch's capacity.
NETWORK_XS = np.arange(0, 300) / 128.0


class TestNetworkGridPath:
    @given(case=networks())
    @settings(max_examples=60, deadline=None)
    def test_grid_evaluator_matches_scalar(self, case):
        network, rates = case
        for i in range(network.n_users):
            assert_matches(network.grid_evaluator(rates, i)(NETWORK_XS),
                           scalar_grid(network, rates, i, NETWORK_XS))

    @given(case=networks(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_equals_row_loop(self, case, data):
        network, rates = case
        rows = data.draw(st.lists(
            st.lists(st.integers(0, 40), min_size=rates.size,
                     max_size=rates.size), min_size=1, max_size=6))
        batch = np.array(rows, dtype=float) / 64.0
        expected = np.stack([network.congestion(row) for row in batch])
        assert_matches(network.congestion_many(batch), expected)

    def test_congestion_grid_is_the_evaluator(self):
        network = NetworkAllocation([FairShareAllocation()] * 2,
                                    [[0], [1], [0, 1]], speeds=[1.0, 0.8])
        rates = np.array([0.2, 0.1, 0.3])
        xs = np.linspace(1e-6, 0.9, 11)
        assert np.array_equal(network.congestion_grid(rates, 2, xs),
                              network.grid_evaluator(rates, 2)(xs))

    def test_class_paths_refuse_networks(self):
        from repro.exceptions import DisciplineError

        network = NetworkAllocation([FairShareAllocation()] * 2,
                                    [[0], [1], [0, 1]])
        with pytest.raises(DisciplineError):
            network.class_congestion([0.1], [3])
        with pytest.raises(DisciplineError):
            network.class_deviation_evaluator([0.1], [3], 0)


class TestGridContract:
    """``vectorized_grid`` is a promise the solvers act on: the game
    layer calls ``grid_evaluator`` and ``congestion_many`` on every
    allocation that sets it."""

    @pytest.mark.parametrize("allocation", [
        *(make_discipline(name) for name in ALL_NAMES),
        NetworkAllocation([FairShareAllocation(), ProportionalAllocation()],
                          [[0], [1], [0, 1]]),
    ], ids=[*ALL_NAMES, "network"])
    def test_vectorized_grid_has_both_batched_paths(self, allocation):
        if not allocation.vectorized_grid:
            pytest.skip("scalar-only discipline")
        rates = np.array([0.1, 0.2, 0.15])
        xs = np.linspace(0.01, 0.3, 5)
        assert allocation.grid_evaluator(rates, 0)(xs).shape == xs.shape
        batch = np.stack([rates, rates / 2.0])
        assert allocation.congestion_many(batch).shape == batch.shape
