"""Nash equilibrium computation.

Two complementary solvers:

* :func:`solve_nash` — damped best-response iteration.  Globally robust;
  under Fair Share it converges for any profile in AU (Theorem 5), and
  the damping handles FIFO's oscillatory coupling.
* :func:`solve_nash_fdc` — Newton/root-finding on the first-derivative
  conditions ``E_i(r) = M_i(r_i, C_i(r)) + dC_i/dr_i = 0``.  Fast and
  precise near a solution; every root is re-certified with actual best
  responses before being reported.

:func:`find_all_nash` runs multistart searches and clusters the
results — the experimental instrument behind the Theorem-4 uniqueness
study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np
from scipy import optimize as sp_optimize

from repro.game.best_response import (
    ResponseMemo,
    best_response_map,
    best_response_map_rows,
    uses_grid,
    utility_improvement_rows,
)
from repro.game.classes import ClassProfile, detect_classes
from repro.numerics.iterate import damped_fixed_point, damped_fixed_point_rows
from repro.numerics.rng import default_rng
from repro.users.utility import Utility

#: Population above which :func:`find_all_nash` seeds starts per class
#: by default.  An N-dimensional Dirichlet concentrates as N grows
#: (every start degenerates to the equal split), so large-N multistart
#: needs the class structure to stay diverse.
CLASS_START_MIN_USERS = 100


@dataclass
class NashResult:
    """A computed Nash equilibrium candidate.

    Attributes
    ----------
    rates:
        Equilibrium rate vector.
    congestion:
        The induced congestion vector ``C(r)``.
    utilities:
        Per-user utility levels at the equilibrium.
    converged:
        Whether the solver met its tolerance.
    iterations:
        Iterations used by the underlying solver.
    max_gain:
        Largest unilateral utility improvement any user retains
        (certificate; ~0 at a true equilibrium).
    method:
        Which solver produced the point.
    """

    rates: np.ndarray
    congestion: np.ndarray
    utilities: np.ndarray
    converged: bool
    iterations: int
    max_gain: float
    method: str

    def is_equilibrium(self, tol: float = 1e-6) -> bool:
        """Whether no user can gain more than ``tol`` by deviating."""
        return self.max_gain <= tol


def _certify_many(allocation, profiles: Sequence[Sequence[Utility]],
                  rates: np.ndarray,
                  memos: Optional[Sequence[ResponseMemo]] = None
                  ) -> List[float]:
    """Max unilateral gain over all users, for each row of ``rates``
    (equilibrium certificates); each user's rows are one batch, and
    responses the solve's ``memos`` hold are reused."""
    r = np.asarray(rates, dtype=float)
    per_user = [utility_improvement_rows(
        allocation, [profile[i] for profile in profiles], r, i,
        memos=memos)
        for i in range(len(profiles[0]))]
    return [float(max(gains)) for gains in zip(*per_user)]


def _certify(allocation, profile: Sequence[Utility],
             rates: np.ndarray) -> float:
    """Max unilateral gain over all users (equilibrium certificate)."""
    return _certify_many(allocation, [profile],
                         np.asarray(rates, dtype=float)[None, :])[0]


def _package_many(allocation, profiles: Sequence[Sequence[Utility]],
                  rates: Sequence[np.ndarray], converged: Sequence[bool],
                  iterations: Sequence[int], method: str,
                  memos: Optional[Sequence[ResponseMemo]] = None
                  ) -> List[NashResult]:
    gains = _certify_many(allocation, profiles, np.array(rates, dtype=float),
                          memos)
    results = []
    for profile, x, ok, count, gain in zip(profiles, rates, converged,
                                           iterations, gains):
        congestion = allocation.congestion(x)
        utilities = np.array([u.value(float(x[i]), float(congestion[i]))
                              for i, u in enumerate(profile)])
        results.append(NashResult(rates=np.asarray(x, dtype=float),
                                  congestion=congestion,
                                  utilities=utilities, converged=ok,
                                  iterations=count, max_gain=gain,
                                  method=method))
    return results


def _package(allocation, profile: Sequence[Utility], rates: np.ndarray,
             converged: bool, iterations: int, method: str,
             memo: Optional[ResponseMemo] = None) -> NashResult:
    return _package_many(allocation, [profile], [rates], [converged],
                         [iterations], method,
                         None if memo is None else [memo])[0]


def default_start(n_users: int, allocation=None) -> np.ndarray:
    """A safe interior starting point (equal split at 50% load)."""
    capacity = 1.0
    if allocation is not None:
        cap = getattr(getattr(allocation, "curve", None), "capacity",
                      math.inf)
        if math.isfinite(cap):
            capacity = cap
    return np.full(n_users, 0.5 * capacity / n_users)


def solve_nash(allocation, profile: Sequence[Utility],
               r0: Optional[Sequence[float]] = None,
               damping: float = 0.5, tol: float = 1e-9,
               max_iter: int = 400) -> NashResult:
    """Damped best-response iteration to a Nash equilibrium.

    The solve keeps a :class:`~repro.game.best_response.ResponseMemo`:
    a best response whose opponents' rates it has already seen (a lone
    free user, an exactly repeating cycle, the certificate at the last
    mapped iterate) is reused instead of recomputed.  The result is
    bit-identical to mapping without it; only the solver counters,
    which count work actually done, are smaller.
    """
    n = len(profile)
    start = (default_start(n, allocation) if r0 is None
             else np.asarray(r0, dtype=float))
    memo = ResponseMemo()

    def mapping(r: np.ndarray) -> np.ndarray:
        return best_response_map(allocation, profile, r, memo=memo)

    outcome = damped_fixed_point(mapping, start, damping=damping, tol=tol,
                                 max_iter=max_iter)
    return _package(allocation, profile, outcome.x, outcome.converged,
                    outcome.iterations, method="best-response", memo=memo)


def solve_nash_many(allocation, profiles: Sequence[Sequence[Utility]],
                    starts: Sequence[Optional[Sequence[float]]],
                    damping: float = 0.5, tol: float = 1e-9,
                    max_iter: int = 400) -> List[NashResult]:
    """Independent :func:`solve_nash` problems, solved in lockstep.

    Problem ``k`` is ``solve_nash(allocation, profiles[k],
    r0=starts[k])`` and result ``k`` equals it on every field, bit for
    bit.  On the grid path the damped iterations advance together
    (:func:`~repro.numerics.iterate.damped_fixed_point_rows`) and each
    round's best responses are one row-batched map
    (:func:`~repro.game.best_response.best_response_map_rows`), so the
    fixed numpy cost of a zoom round is paid once for all problems.
    Each problem keeps its own best-response memo, as in
    :func:`solve_nash`, and only the rows that miss it are batched.
    Off the grid path, where there is nothing to share, the problems
    are solved one by one.  All profiles must have the same length.
    """
    if len(profiles) != len(starts):
        raise ValueError(
            f"{len(profiles)} profiles but {len(starts)} starts")
    sizes = {len(profile) for profile in profiles}
    if len(sizes) > 1:
        raise ValueError(f"profiles differ in length: {sorted(sizes)}")
    if not profiles or not uses_grid(allocation, sizes.pop()):
        return [solve_nash(allocation, profile, r0=start, damping=damping,
                           tol=tol, max_iter=max_iter)
                for profile, start in zip(profiles, starts)]
    x0 = np.array([default_start(len(profile), allocation) if start is None
                   else np.asarray(start, dtype=float)
                   for profile, start in zip(profiles, starts)])

    memos = [ResponseMemo() for _ in profiles]

    def mapping(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        picked = rows.tolist()
        return best_response_map_rows(
            allocation, [profiles[k] for k in picked], x,
            memos=[memos[k] for k in picked])

    outcomes = damped_fixed_point_rows(mapping, x0, damping=damping,
                                       tol=tol, max_iter=max_iter)
    return _package_many(allocation, profiles,
                         [outcome.x for outcome in outcomes],
                         [outcome.converged for outcome in outcomes],
                         [outcome.iterations for outcome in outcomes],
                         method="best-response", memos=memos)


def solve_nash_fdc(allocation, profile: Sequence[Utility],
                   r0: Optional[Sequence[float]] = None,
                   tol: float = 1e-10) -> NashResult:
    """Root-find the Nash first-derivative conditions.

    ``E_i(r) = M_i(r_i, C_i(r)) + dC_i/dr_i``; a Nash equilibrium in
    the interior satisfies ``E = 0``.  The returned point carries its
    best-response certificate — for non-Fair-Share disciplines an FDC
    root need not be a global best response (Lemma 4 is specific to
    Fair Share), and the ``max_gain`` field exposes that.
    """
    n = len(profile)
    start = (default_start(n, allocation) if r0 is None
             else np.asarray(r0, dtype=float))

    def residuals(r: np.ndarray) -> np.ndarray:
        out = np.empty(n)
        congestion = allocation.congestion(r)
        for i, utility in enumerate(profile):
            if not math.isfinite(congestion[i]):
                out[i] = 1e6
                continue
            m = utility.marginal_ratio(float(r[i]), float(congestion[i]))
            out[i] = m + allocation.own_derivative(r, i)
        return out

    solution = sp_optimize.root(residuals, start, method="hybr",
                                options={"xtol": tol})
    rates = np.asarray(solution.x, dtype=float)
    converged = bool(solution.success) and bool(np.all(rates > 0.0))
    iterations = int(solution.nfev)
    return _package(allocation, profile, np.abs(rates), converged,
                    iterations, method="fdc-root")


def is_nash(allocation, profile: Sequence[Utility],
            rates: Sequence[float], tol: float = 1e-6) -> bool:
    """Certify ``rates`` as a Nash equilibrium by best responses."""
    r = np.asarray(rates, dtype=float)
    return _certify(allocation, profile, r) <= tol


def _class_seeded_start(generator: np.random.Generator,
                        grouping: ClassProfile,
                        max_total: float) -> np.ndarray:
    """One random start with class-level diversity.

    The total load and its split *across classes* come from
    low-dimensional draws (K-dim Dirichlet), so distinct starts place
    genuinely different masses on each utility class even at N=10^4;
    the split *within* a class is a further Dirichlet so the start is
    not artificially class-symmetric.
    """
    load = generator.uniform(0.05, max_total)
    totals = generator.dirichlet(np.ones(grouping.n_classes)) * load
    start = np.empty(grouping.n_users)
    for k, indices in enumerate(grouping.members):
        share = generator.dirichlet(np.ones(len(indices)))
        start[list(indices)] = totals[k] * share
    return start


def find_all_nash(allocation, profile: Sequence[Utility],
                  n_starts: int = 12,
                  rng: Optional[np.random.Generator] = None,
                  gain_tol: float = 1e-6,
                  distinct_tol: float = 1e-3,
                  max_iter: int = 400,
                  class_starts: Optional[bool] = None) -> List[NashResult]:
    """Multistart equilibrium search with clustering.

    Runs damped best-response iteration from ``n_starts`` random
    interior points (together, via :func:`solve_nash_many`), keeps
    runs that certify as equilibria, and merges
    points closer than ``distinct_tol`` in sup norm.  Returns the
    distinct equilibria found (possibly empty if nothing certified).

    ``class_starts`` controls the start distribution: ``True`` seeds
    per utility class (:func:`_class_seeded_start`), ``False`` uses
    the flat N-dimensional Dirichlet, and ``None`` (default) picks
    class seeding exactly when ``len(profile) >=``
    :data:`CLASS_START_MIN_USERS` and the profile actually has fewer
    classes than users — below the threshold the RNG draw sequence is
    byte-identical to the historical behaviour.
    """
    generator = default_rng(rng if rng is not None else 0)
    n = len(profile)
    capacity = getattr(getattr(allocation, "curve", None), "capacity",
                       math.inf)
    max_total = 0.95 * capacity if math.isfinite(capacity) else 2.0
    use_classes = (n >= CLASS_START_MIN_USERS if class_starts is None
                   else bool(class_starts))
    grouping: Optional[ClassProfile] = None
    if use_classes:
        grouping = detect_classes(profile)
        if grouping.n_classes >= n:
            grouping = None         # no symmetry to exploit
    alpha = np.ones(n)
    starts = []
    for _ in range(n_starts):
        if grouping is not None:
            starts.append(_class_seeded_start(generator, grouping,
                                              max_total))
        else:
            direction = generator.dirichlet(alpha)
            load = generator.uniform(0.05, max_total)
            starts.append(direction * load)
    # Solves draw nothing, so drawing every start first leaves the
    # generator sequence unchanged.
    results = solve_nash_many(allocation, [profile] * n_starts, starts,
                              max_iter=max_iter)
    found: List[NashResult] = []
    for result in results:
        if not result.is_equilibrium(gain_tol):
            continue
        duplicate = any(
            float(np.max(np.abs(result.rates - other.rates))) < distinct_tol
            for other in found)
        if not duplicate:
            found.append(result)
    return found
