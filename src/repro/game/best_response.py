"""Best responses: one user's optimal rate against fixed opponents.

The paper's users are selfish: user ``i`` varies ``r_i`` to maximize
``U_i(r_i, C_i(r |^i r_i))`` with the other rates held fixed.  The
objective is smooth inside the stable region and drops to ``-inf``
where the user's own congestion diverges, so a scan + golden-section
maximization is both robust and accurate.

When the discipline advertises a one-pass grid
(:attr:`~repro.disciplines.base.AllocationFunction.vectorized_grid`)
and the solver-vector switch is on, the scan and refinement run as a
handful of batched ``congestion_grid`` + ``value_grid`` calls instead
of ~100 scalar congestion evaluations — the core of the vectorized
solver path.  Every best response records its evaluation counts via
:mod:`repro.numerics.instrumentation`.

A user's best response depends on the opponents' rates only, so a Nash
solve keeps a :class:`ResponseMemo` and never computes the same one
twice.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.numerics import instrumentation
from repro.numerics.optimize import (GridFunc, RowGridFunc, ScalarMaxResult,
                                     grid_multistart_maximize_rows,
                                     multistart_maximize)
from repro.users.utility import Utility, value_grid_rows

#: Smallest rate a user will consider (the paper requires ``r_i > 0``).
MIN_RATE = 1e-6


def _default_rate_cap(allocation) -> float:
    """Upper end of the rate interval a user searches.

    For curves with a capacity pole (M/M/1), rates at or beyond capacity
    are never optimal (own congestion is infinite), so the pole bounds
    the search.  For pole-free constraints (the separable world) or
    allocations that do not carry a service curve at all, we use a
    generous fixed cap; utilities in AU eventually punish congestion
    enough to keep optima interior.
    """
    curve = getattr(allocation, "curve", None)
    capacity = getattr(curve, "capacity", math.inf)
    if math.isfinite(capacity):
        return capacity * (1.0 - 1e-6)
    return 4.0


def uses_grid(allocation, n_users: int) -> bool:
    """Whether best responses in an ``n_users`` game take the grid path.

    In ``auto`` mode the discipline's
    :attr:`~repro.disciplines.base.AllocationFunction.grid_min_users`
    cost hint arbitrates: below that population the scalar scan beats
    the grid's fixed numpy overhead (FIFO's scalar objective is a
    single ``sum``), so the scalar path is taken — same bracket, same
    result, less time.
    """
    solver_mode = instrumentation.mode()
    if solver_mode == "off":
        return False
    if not getattr(allocation, "vectorized_grid", False):
        return False
    return not (solver_mode == "auto"
                and n_users < getattr(allocation, "grid_min_users", 0))


def _grid_objective(allocation, utility: Utility, rates: np.ndarray,
                    i: int) -> Optional[GridFunc]:
    """Batched objective for :func:`multistart_maximize`, if available
    (``None`` off the grid path, see :func:`uses_grid`)."""
    if not uses_grid(allocation, rates.size):
        return None
    # One evaluator per best response: the opponent-side precomputation
    # (sort, ladder, prefix sums) is shared by every grid-zoom round.
    evaluator = allocation.grid_evaluator(rates.copy(), i)

    def grid(xs: np.ndarray) -> np.ndarray:
        return utility.value_grid(xs, evaluator(xs))

    return grid


def best_response(allocation, utility: Utility, rates: Sequence[float],
                  i: int, r_max: Optional[float] = None,
                  n_scan: int = 65, tol: float = 1e-11) -> ScalarMaxResult:
    """Maximize user ``i``'s utility along her own rate axis.

    Parameters
    ----------
    allocation:
        An allocation function (or subsystem) exposing ``congestion_i``.
    utility:
        User ``i``'s utility.
    rates:
        Current full rate vector; entry ``i`` is ignored.
    r_max:
        Upper search bound; defaults to just under the capacity pole.
    n_scan:
        Grid size of the global scan preceding local refinement.
    """
    base = np.asarray(rates, dtype=float).copy()
    hi = _default_rate_cap(allocation) if r_max is None else float(r_max)

    def objective(x: float) -> float:
        base[i] = x
        congestion = allocation.congestion_i(base, i)
        return utility.value(x, congestion)

    grid = _grid_objective(allocation, utility,
                           np.asarray(rates, dtype=float), i)
    result = multistart_maximize(objective, MIN_RATE, hi, n_scan=n_scan,
                                 tol=tol, grid_func=grid)
    base[i] = result.x
    instrumentation.record(objective_evals=result.evaluations,
                           congestion_evals=result.evaluations,
                           grid_calls=result.grid_calls,
                           wall_time=result.wall_time)
    return result


class ResponseMemo:
    """Best responses already computed in one Nash problem.

    User ``i``'s best response ignores ``rates[i]``, so a response
    computed at a stored iterate serves any rate vector that agrees
    with it bit for bit everywhere except coordinate ``i``.  Two exact
    lookups find such an iterate: the last one stored, when at most
    one coordinate has changed since (a lone free user's map is
    constant), and a dict keyed on the full iterate's bytes (exact
    cycles, and the certificate at a converged solve's last iterate).
    Each iterate is stored once, as its bytes with its N responses, so
    memory is O(N) per iterate.  A memo belongs to one problem: one
    allocation, one profile and one set of search parameters.
    """

    def __init__(self) -> None:
        self._seen: Dict[bytes, List[ScalarMaxResult]] = {}
        self._last: Optional[bytes] = None

    def lookup(self, rates: np.ndarray) -> List[Optional[ScalarMaxResult]]:
        """Each user's stored response at ``rates`` (``None`` if none)."""
        key = np.asarray(rates, dtype=float).tobytes()
        stored = self._seen.get(key)
        if stored is not None:
            return list(stored)
        known: List[Optional[ScalarMaxResult]] = [None] * (len(key) // 8)
        if self._last is not None:
            changed = np.flatnonzero(np.frombuffer(self._last, np.uint64)
                                     != np.frombuffer(key, np.uint64))
            if changed.size == 1:
                i = int(changed[0])
                known[i] = self._seen[self._last][i]
        return known

    def store(self, rates: np.ndarray,
              results: Sequence[ScalarMaxResult]) -> None:
        """Record every user's response at ``rates``."""
        key = np.asarray(rates, dtype=float).tobytes()
        self._seen[key] = list(results)
        self._last = key


def best_response_map(allocation, profile: Sequence[Utility],
                      rates: Sequence[float],
                      r_max: Optional[float] = None,
                      n_scan: int = 65, tol: float = 1e-11,
                      memo: Optional[ResponseMemo] = None) -> np.ndarray:
    """Simultaneous best responses: ``B(r)_i = argmax_x U_i(x, C_i)``.

    Fixed points of this map are exactly the Nash equilibria.
    Responses the problem's ``memo`` already holds are reused rather
    than recomputed (and record no solver counts), and the new ones
    are stored; without a memo every response is computed.
    """
    r = np.asarray(rates, dtype=float)
    if len(profile) != r.size:
        raise ValueError(
            f"profile has {len(profile)} utilities for {r.size} rates")
    memo = ResponseMemo() if memo is None else memo
    results = [best_response(allocation, utility, r, i, r_max=r_max,
                             n_scan=n_scan, tol=tol)
               if result is None else result
               for i, (utility, result) in enumerate(zip(profile,
                                                          memo.lookup(r)))]
    memo.store(r, results)
    return np.array([result.x for result in results], dtype=float)


def _grid_objective_rows(allocation, utilities: Sequence[Utility],
                         rates: np.ndarray, i: int) -> Optional[RowGridFunc]:
    """Row-wise batched objective: user ``i`` in every problem at once.

    ``None`` when the row evaluator cannot be prepared; the caller then
    solves each row on its own, where the same error surfaces (or not)
    exactly as in a lone :func:`best_response`.
    """
    try:
        evaluator = allocation.grid_evaluator_rows(rates.copy(), i)
    except (ArithmeticError, ValueError, TypeError, IndexError,
            AttributeError):
        return None

    def grid(rows: np.ndarray, xs: np.ndarray) -> np.ndarray:
        return value_grid_rows([utilities[k] for k in rows.tolist()], xs,
                               evaluator(rows, xs))

    return grid


def best_response_rows(allocation, utilities: Sequence[Utility],
                       rates: np.ndarray, i: int,
                       r_max: Optional[float] = None, n_scan: int = 65,
                       tol: float = 1e-11) -> List[ScalarMaxResult]:
    """:func:`best_response` for user ``i`` in S independent problems.

    Row ``k`` of the ``(S, n)`` ``rates`` and ``utilities[k]`` form
    problem ``k``; result ``k`` equals ``best_response(allocation,
    utilities[k], rates[k], i)`` bit for bit, and the solver counters
    grow by exactly what those S calls record.  On the grid path one
    row evaluator and one utility evaluation per zoom round serve
    every problem
    (:func:`~repro.numerics.optimize.grid_multistart_maximize_rows`);
    a row whose objective raises is re-solved by :func:`best_response`.
    A single row, or any problem off the grid path, goes straight to
    :func:`best_response`.
    """
    r = np.asarray(rates, dtype=float)
    n_rows = r.shape[0]
    results: List[Optional[ScalarMaxResult]] = [None] * n_rows
    grid = (_grid_objective_rows(allocation, utilities, r, i)
            if n_rows > 1 and uses_grid(allocation, r.shape[1]) else None)
    if grid is not None:
        hi = _default_rate_cap(allocation) if r_max is None else float(r_max)
        # greedwork: ignore[GW502] -- diagnostic wall time only.
        start = time.perf_counter()
        results = grid_multistart_maximize_rows(
            grid, np.full(n_rows, MIN_RATE), np.full(n_rows, hi),
            n_scan=n_scan, tol=tol)
        solved = [result for result in results if result is not None]
        evals = sum(result.evaluations for result in solved)
        instrumentation.record(
            objective_evals=evals, congestion_evals=evals,
            grid_calls=sum(result.grid_calls for result in solved),
            # greedwork: ignore[GW502] -- diagnostic wall time only.
            wall_time=time.perf_counter() - start)
    return [best_response(allocation, utilities[k], r[k], i, r_max=r_max,
                          n_scan=n_scan, tol=tol)
            if result is None else result
            for k, result in enumerate(results)]


def best_response_map_rows(allocation,
                           profiles: Sequence[Sequence[Utility]],
                           rates: np.ndarray,
                           r_max: Optional[float] = None,
                           n_scan: int = 65,
                           tol: float = 1e-11,
                           memos: Optional[Sequence[ResponseMemo]] = None
                           ) -> np.ndarray:
    """:func:`best_response_map` for S independent problems in lockstep.

    Row ``k`` of the ``(S, n)`` result equals
    ``best_response_map(allocation, profiles[k], rates[k],
    memo=memos[k])`` bit for bit; each user's S best responses are one
    :func:`best_response_rows` call over the rows whose memo misses,
    so every memo sees the same hits as in a one-problem solve.  A
    single row goes straight to :func:`best_response_map`, which is
    cheaper than a batch of one.
    """
    r = np.asarray(rates, dtype=float)
    if r.ndim != 2 or len(profiles) != r.shape[0]:
        raise ValueError(
            f"expected {len(profiles)} rate rows, got shape {r.shape}")
    for profile in profiles:
        if len(profile) != r.shape[1]:
            raise ValueError(f"profile has {len(profile)} utilities for "
                             f"{r.shape[1]} rates")
    if memos is None:
        memos = [ResponseMemo() for _ in profiles]
    if r.shape[0] == 1:
        return best_response_map(allocation, profiles[0], r[0],
                                 r_max=r_max, n_scan=n_scan, tol=tol,
                                 memo=memos[0])[None, :]
    results = [memo.lookup(row) for memo, row in zip(memos, r)]
    for i in range(r.shape[1]):
        miss = [k for k, row in enumerate(results) if row[i] is None]
        if not miss:
            continue
        solved = best_response_rows(
            allocation, [profiles[k][i] for k in miss], r[miss], i,
            r_max=r_max, n_scan=n_scan, tol=tol)
        for k, result in zip(miss, solved):
            results[k][i] = result
    for memo, row, row_results in zip(memos, r, results):
        memo.store(row, row_results)
    return np.array([[result.x for result in row] for row in results],
                    dtype=float)


def utility_improvement(allocation, utility: Utility,
                        rates: Sequence[float], i: int,
                        r_max: Optional[float] = None) -> float:
    """How much user ``i`` could gain by deviating unilaterally.

    Zero (up to solver tolerance) at a Nash equilibrium.  Used as the
    equilibrium certificate because rate-space distance is a bad metric
    when the objective is flat.  Counts toward the active solver
    tracker, so ``is_nash``/certification cost shows up in experiment
    reports rather than being invisible.
    """
    r = np.asarray(rates, dtype=float)[None, :]
    return utility_improvement_rows(allocation, [utility], r, i,
                                    r_max=r_max)[0]


def utility_improvement_rows(allocation, utilities: Sequence[Utility],
                             rates: np.ndarray, i: int,
                             r_max: Optional[float] = None,
                             memos: Optional[Sequence[ResponseMemo]] = None
                             ) -> List[float]:
    """:func:`utility_improvement` for user ``i`` in S problems at once.

    Row ``k`` of ``rates`` and ``utilities[k]`` form problem ``k``; the
    best responses that ``memos[k]`` does not already hold are one
    :func:`best_response_rows` call.  The current values are always
    evaluated (and counted).
    """
    r = np.asarray(rates, dtype=float)
    current = [utility.value(float(row[i]), allocation.congestion_i(row, i))
               for utility, row in zip(utilities, r)]
    instrumentation.record(objective_evals=len(current),
                           congestion_evals=len(current))
    if memos is None:
        memos = [ResponseMemo() for _ in utilities]
    best = [memo.lookup(row)[i] for memo, row in zip(memos, r)]
    miss = [k for k, result in enumerate(best) if result is None]
    if miss:
        solved = best_response_rows(allocation,
                                    [utilities[k] for k in miss], r[miss],
                                    i, r_max=r_max)
        for k, result in zip(miss, solved):
            best[k] = result
    return [0.0 if math.isinf(value) and math.isinf(result.value)
            else result.value - value
            for value, result in zip(current, best)]
