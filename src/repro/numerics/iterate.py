"""Damped fixed-point iteration.

Best-response dynamics are a fixed-point iteration ``r <- B(r)``; plain
iteration can overshoot under disciplines with strong coupling (FIFO),
so the solver supports damping and adaptive damping reduction when the
residual stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConvergenceError


@dataclass
class FixedPointResult:
    """Outcome of a damped fixed-point iteration.

    Attributes
    ----------
    x:
        Final iterate.
    converged:
        Whether the residual dropped below tolerance.
    iterations:
        Number of iterations performed.
    residual:
        Final sup-norm residual ``||B(x) - x||``.
    history:
        Iterate trajectory (including the start point) when recording
        was requested, else ``None``.
    """

    x: np.ndarray
    converged: bool
    iterations: int
    residual: float
    history: Optional[np.ndarray] = None


def _adapt_damping(residual: float, last_residual: float, stall: int,
                   d: float) -> Tuple[int, float]:
    """Halve ``d`` after three residuals in a row that fail to shrink.

    Returns the updated ``(stall, d)``; ``d`` never drops below 1/64.
    """
    if residual >= last_residual * 0.999:
        stall += 1
        if stall >= 3 and d > 1.0 / 64.0:
            return 0, d * 0.5
        return stall, d
    return 0, d


def damped_fixed_point(mapping: Callable[[np.ndarray], np.ndarray],
                       x0: np.ndarray,
                       damping: float = 0.5,
                       tol: float = 1e-10,
                       max_iter: int = 500,
                       adapt: bool = True,
                       record: bool = False,
                       raise_on_failure: bool = False) -> FixedPointResult:
    """Iterate ``x <- (1-d) x + d B(x)`` until ``||B(x) - x||_inf < tol``.

    Parameters
    ----------
    mapping:
        The map ``B`` whose fixed point is sought.
    x0:
        Starting point.
    damping:
        Initial step fraction ``d`` in (0, 1].
    adapt:
        Halve the damping whenever the residual fails to shrink for
        several consecutive iterations (helps FIFO's near-oscillatory
        best-response dynamics).
    record:
        Keep the full trajectory in :attr:`FixedPointResult.history`.
    raise_on_failure:
        Raise :class:`~repro.exceptions.ConvergenceError` instead of
        returning a non-converged result.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    x = np.asarray(x0, dtype=float).copy()
    trail = [x.copy()] if record else None
    d = damping
    last_residual = np.inf
    stall = 0
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        target = np.asarray(mapping(x), dtype=float)
        residual = float(np.max(np.abs(target - x)))
        if record:
            trail.append(target.copy())
        if residual < tol:
            history = np.array(trail) if record else None
            return FixedPointResult(x=x, converged=True,
                                    iterations=iteration,
                                    residual=residual, history=history)
        if adapt:
            stall, d = _adapt_damping(residual, last_residual, stall, d)
        last_residual = residual
        x = (1.0 - d) * x + d * target
    if raise_on_failure:
        raise ConvergenceError(
            "fixed-point iteration did not converge "
            f"(residual {residual:.3e} after {max_iter} iterations)",
            iterations=max_iter, residual=residual)
    history = np.array(trail) if record else None
    return FixedPointResult(x=x, converged=False, iterations=max_iter,
                            residual=residual, history=history)


def damped_fixed_point_rows(mapping: Callable[[np.ndarray, np.ndarray],
                                              np.ndarray],
                            x0: np.ndarray,
                            damping: float = 0.5,
                            tol: float = 1e-10,
                            max_iter: int = 500,
                            adapt: bool = True) -> List[FixedPointResult]:
    """S independent :func:`damped_fixed_point` iterations in lockstep.

    Row ``k`` of ``x0`` starts problem ``k``; ``mapping(rows, x)``
    returns the targets ``B_k(x[j])`` for ``k = rows[j]``.  Each row
    keeps its own damping, stall count and last residual, and retires
    on convergence or at ``max_iter``, so result ``k`` equals
    ``damped_fixed_point`` on problem ``k`` alone, bit for bit.  Only
    the rows still iterating are passed to ``mapping``.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in (0, 1]")
    x = np.array(x0, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x0 must be 2-D (rows, dim), got {x.shape}")
    n_rows = x.shape[0]
    d = [damping] * n_rows
    last_residual = [np.inf] * n_rows
    stall = [0] * n_rows
    residual = [np.inf] * n_rows
    results: List[Optional[FixedPointResult]] = [None] * n_rows
    active = list(range(n_rows))
    for iteration in range(1, max_iter + 1):
        if not active:
            break
        rows = np.array(active)
        targets = np.asarray(mapping(rows, x[rows]), dtype=float)
        gaps = np.max(np.abs(targets - x[rows]), axis=1)
        still = []
        for j, k in enumerate(active):
            residual[k] = float(gaps[j])
            if residual[k] < tol:
                results[k] = FixedPointResult(x=x[k].copy(), converged=True,
                                              iterations=iteration,
                                              residual=residual[k])
                continue
            if adapt:
                stall[k], d[k] = _adapt_damping(residual[k], last_residual[k],
                                                stall[k], d[k])
            last_residual[k] = residual[k]
            x[k] = (1.0 - d[k]) * x[k] + d[k] * targets[j]
            still.append(k)
        active = still
    for k in active:
        results[k] = FixedPointResult(x=x[k].copy(), converged=False,
                                      iterations=max_iter,
                                      residual=residual[k])
    return [result for result in results if result is not None]
