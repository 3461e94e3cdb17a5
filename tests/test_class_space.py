"""The symmetry-class Nash reduction: agreement with the exact solver.

The load-bearing claim of the class-space layer is that the K-class
reduced game *is* the N-user game on class-symmetric profiles: the
damped iteration and the FDC root must reproduce the per-user solvers
to solver precision, and the expanded points must certify through the
completely independent per-user evaluation path.  The golden grid here
pins that agreement to 1e-10 for the five allocation families at
N <= 64, K in {1, 2, 4}.

Priority is special: its tie-averaged allocation is continuous but not
C^1 across ties (it sits outside the paper's AC set), so multi-member
classes face an undercutting knife edge and the symmetric point is
only an eps-equilibrium with eps -> 0 in N.  The reduction is still
exact — the class trajectory coincides with the per-user trajectory —
which is precisely what the priority cases assert.
"""

import numpy as np
import pytest

from repro.disciplines.registry import make_discipline
from repro.game.classes import (
    ClassProfile,
    certify_expansion,
    class_best_response,
    class_fdc_residuals,
    detect_classes,
    solve_nash_classes,
    solve_nash_classes_fdc,
)
from repro.game.best_response import best_response
from repro.game.nash import find_all_nash, solve_nash, solve_nash_fdc
from repro.numerics.instrumentation import set_vectorized, track_solver
from repro.numerics.rng import default_rng
from repro.users.families import LinearUtility, PowerUtility

#: The agreement tolerance the class reduction is held to.
AGREEMENT_TOL = 1e-10

#: Families whose interior equilibria are smooth (FDC-polishable).
SMOOTH_FAMILIES = ("fair-share", "fifo", "separable", "pivot")

GRID = [(8, 1), (8, 2), (8, 4), (64, 1), (64, 2), (64, 4)]


def class_setup(n, k):
    """K strictly concave classes, n // k users each.

    The 1/sqrt(n) appetite scaling keeps the equilibrium interior and
    the load regime comparable across population sizes (the same
    recipe as the scaling_regimes experiment and bench_solver).
    """
    weights = np.linspace(1.0, 2.0, k)
    utilities = [PowerUtility(gamma=1.0, a=float(w) / np.sqrt(n),
                              p=0.5, q=1.0) for w in weights]
    return utilities, [n // k] * k


def expand_profile(utilities, counts):
    """The per-user profile in class-block order."""
    return [u for u, m in zip(utilities, counts) for _ in range(m)]


def solve_both(allocation, utilities, counts):
    """(class result, exact per-user result), both BR-seeded + FDC."""
    per_user = expand_profile(utilities, counts)
    seeded = solve_nash_classes(allocation, utilities, counts=counts,
                                tol=1e-9, max_iter=300)
    cls = solve_nash_classes_fdc(allocation, utilities, counts=counts,
                                 r0=seeded.class_rates)
    ex_seed = solve_nash(allocation, per_user, tol=1e-9, max_iter=300)
    exact = solve_nash_fdc(allocation, per_user, r0=ex_seed.rates)
    return cls, exact


class TestExactAgreement:
    """solve_nash_classes == solve_nash to <= 1e-10 (the tentpole)."""

    @pytest.mark.parametrize("family", SMOOTH_FAMILIES)
    @pytest.mark.parametrize("n,k", GRID)
    def test_rates_and_utilities_match(self, family, n, k):
        allocation = make_discipline(family)
        utilities, counts = class_setup(n, k)
        cls, exact = solve_both(allocation, utilities, counts)
        assert cls.converged and exact.converged
        assert np.max(np.abs(cls.expand_rates()
                             - exact.rates)) <= AGREEMENT_TOL
        assert np.max(np.abs(cls.expand_utilities()
                             - exact.utilities)) <= AGREEMENT_TOL
        assert np.max(np.abs(cls.expand_congestion()
                             - exact.congestion)) <= AGREEMENT_TOL

    @pytest.mark.parametrize("family", SMOOTH_FAMILIES)
    def test_certificates_hold(self, family):
        allocation = make_discipline(family)
        utilities, counts = class_setup(64, 4)
        cls, _ = solve_both(allocation, utilities, counts)
        assert cls.max_gain <= 1e-8
        assert cls.spot_gain <= 1e-8
        assert cls.is_equilibrium(1e-8)

    @pytest.mark.parametrize("n,k", [(8, 1), (64, 1), (64, 2), (64, 4)])
    def test_priority_trajectory_identity(self, n, k):
        """Class and per-user damped iterations coincide for priority.

        No FDC polish: the tie-block kink makes the smooth first-order
        condition spurious, so the damped best-response fixed point is
        the object of interest — and it is the *same* trajectory in
        class space and user space.  Utilities are compared at the
        expanded point through the independent per-user congestion
        path (the tie-averaging formula's twin).
        """
        pr = make_discipline("priority")
        utilities, counts = class_setup(n, k)
        per_user = expand_profile(utilities, counts)
        cls = solve_nash_classes(pr, utilities, counts=counts, tol=1e-10,
                                 max_iter=1000, certify_users=0)
        exact = solve_nash(pr, per_user, tol=1e-10, max_iter=1000)
        assert cls.converged and exact.converged
        expanded = cls.expand_rates()
        assert np.max(np.abs(expanded - exact.rates)) <= AGREEMENT_TOL
        congestion = pr.congestion(expanded)
        at_point = np.array(
            [u.value(float(expanded[j]), float(congestion[j]))
             for j, u in enumerate(per_user)])
        assert np.max(np.abs(at_point
                             - cls.expand_utilities())) <= AGREEMENT_TOL

    def test_fdc_residuals_vanish_at_solution(self):
        """class_fdc_residuals is the FDC oracle: ~0 at the root."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 4)
        cls, _ = solve_both(fs, utilities, counts)
        residuals = class_fdc_residuals(fs, utilities, cls.class_rates,
                                        counts)
        assert np.max(np.abs(residuals)) <= 1e-8

    def test_scalar_oracle_agrees(self):
        """The class solver under the scalar path matches the grid path
        to maximizer tolerance (the correctness oracle, in class
        space)."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 4)
        set_vectorized("off")
        try:
            scalar = solve_nash_classes(fs, utilities, counts=counts)
        finally:
            set_vectorized(None)
        grid = solve_nash_classes(fs, utilities, counts=counts)
        assert np.max(np.abs(scalar.class_rates
                             - grid.class_rates)) <= 1e-6

    def test_n1000_smoke(self):
        """The headline scale: exact N=10^3 equilibrium, certified."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(1000, 4)
        seeded = solve_nash_classes(fs, utilities, counts=counts,
                                    tol=1e-9, max_iter=300)
        result = solve_nash_classes_fdc(fs, utilities, counts=counts,
                                        r0=seeded.class_rates)
        assert result.converged
        assert result.n_users == 1000
        assert result.max_gain <= 1e-8
        assert result.spot_gain <= 1e-8


class TestClassSpaceCost:
    def test_solver_work_does_not_grow_with_n(self):
        """The class-space solve is O(K), not O(N).

        The seeded iteration plus the FDC polish at N=10^4 may not
        spend more objective, congestion or grid evaluations than at
        N=10^3 (the counts even fall: 27,644 vs 31,592 objective
        evaluations, 756 vs 864 grid calls).  A per-user loop in
        ``repro.game.classes`` or ``repro.game.meanfield`` would make
        them scale with N.
        """
        fs = make_discipline("fair-share")
        work = {}
        for n in (1_000, 10_000):
            utilities, counts = class_setup(n, 4)
            with track_solver() as counters:
                seeded = solve_nash_classes(fs, utilities, counts=counts,
                                            tol=1e-9, max_iter=300)
                result = solve_nash_classes_fdc(fs, utilities,
                                                counts=counts,
                                                r0=seeded.class_rates)
            assert result.converged
            work[n] = counters
        for field in ("objective_evals", "congestion_evals",
                      "grid_calls"):
            assert getattr(work[10_000], field) \
                <= getattr(work[1_000], field), field


class TestClassBestResponse:
    def test_matches_per_user_best_response(self):
        """One class member's deviation problem == the per-user one."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 4)
        class_rates = np.array([0.02, 0.03, 0.04, 0.05])
        expanded = np.repeat(class_rates, counts)
        cls = class_best_response(fs, utilities[2], class_rates, counts, 2)
        per_user = best_response(fs, utilities[2], expanded, 4)
        assert cls.x == pytest.approx(per_user.x, abs=1e-9)
        assert cls.value == pytest.approx(per_user.value, abs=1e-11)

    def test_counts_one_reduces_to_per_user(self):
        """All-singleton classes are the plain N-user game."""
        fifo = make_discipline("fifo")
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        rates = np.array([0.05, 0.1, 0.15])
        for i in range(3):
            cls = class_best_response(fifo, profile[i], rates,
                                      [1, 1, 1], i)
            per = best_response(fifo, profile[i], rates, i)
            assert cls.x == pytest.approx(per.x, abs=1e-9)


class TestDetectClasses:
    def test_groups_equal_utilities(self):
        u1, u2 = LinearUtility(gamma=0.3), LinearUtility(gamma=0.7)
        grouping = detect_classes([u1, u2, u1, u1, u2])
        assert grouping.n_classes == 2
        assert grouping.counts == (3, 2)
        assert grouping.members == ((0, 2, 3), (1, 4))

    def test_distinct_parameters_stay_apart(self):
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        grouping = detect_classes(profile)
        assert grouping.n_classes == 3
        assert grouping.counts == (1, 1, 1)

    def test_scatter_restores_input_order(self):
        u1, u2 = LinearUtility(gamma=0.3), LinearUtility(gamma=0.7)
        grouping = detect_classes([u1, u2, u1])
        assert np.array_equal(grouping.scatter([1.0, 2.0]),
                              [1.0, 2.0, 1.0])

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            detect_classes([])

    def test_solver_accepts_interleaved_profile(self):
        """A per-user profile in any order solves through detection and
        expands back in input order."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 2)
        interleaved = [utilities[j % 2] for j in range(8)]
        result = solve_nash_classes(fs, interleaved, tol=1e-9,
                                    max_iter=300)
        assert result.converged
        expanded = result.expand_rates()
        # Users 0, 2, 4, 6 are class 0; 1, 3, 5, 7 are class 1.
        assert np.allclose(expanded[::2], result.class_rates[0])
        assert np.allclose(expanded[1::2], result.class_rates[1])


class TestClassProfileValidation:
    def test_mismatched_lengths(self):
        with pytest.raises(ValueError, match="utilities"):
            ClassProfile(utilities=(LinearUtility(gamma=0.5),),
                         counts=(2, 3))

    def test_nonpositive_counts(self):
        with pytest.raises(ValueError, match="positive"):
            ClassProfile(utilities=(LinearUtility(gamma=0.5),),
                         counts=(0,))

    def test_solver_rejects_bad_counts(self):
        fs = make_discipline("fair-share")
        with pytest.raises(ValueError, match="counts"):
            solve_nash_classes(fs, [LinearUtility(gamma=0.5)],
                               counts=[2, 2])


class TestCertifyExpansion:
    def test_at_equilibrium_gain_vanishes(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(64, 2)
        cls, _ = solve_both(fs, utilities, counts)
        gain = certify_expansion(fs, utilities, cls.class_rates, counts,
                                 users_per_class=2)
        assert gain <= 1e-8

    def test_off_equilibrium_gain_positive(self):
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(8, 2)
        gain = certify_expansion(fs, utilities, [0.001, 0.001], counts)
        assert gain > 1e-3


class TestFindAllNashClassSeeding:
    def test_small_n_byte_identical(self):
        """Below the population threshold the flat Dirichlet draws are
        untouched: default and class_starts=False agree exactly."""
        fs = make_discipline("fair-share")
        profile = [LinearUtility(gamma=g) for g in (0.3, 0.5, 0.7)]
        default = find_all_nash(fs, profile, n_starts=4,
                                rng=default_rng(7))
        flat = find_all_nash(fs, profile, n_starts=4,
                             rng=default_rng(7), class_starts=False)
        assert len(default) == len(flat)
        for a, b in zip(default, flat):
            assert np.array_equal(a.rates, b.rates)

    def test_class_seeded_search_certifies(self):
        """Per-class seeding at N=120 still lands on certified
        equilibria (flat N-dim Dirichlet draws concentrate and miss
        the interesting corners at this scale)."""
        fs = make_discipline("fair-share")
        utilities, counts = class_setup(120, 3)
        profile = expand_profile(utilities, counts)
        found = find_all_nash(fs, profile, n_starts=2,
                              rng=default_rng(11), class_starts=True)
        assert found
        for result in found:
            assert result.max_gain <= 1e-6
