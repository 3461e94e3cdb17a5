"""Solver observability: evaluation counters and the vectorization switch.

The analytic game layer is the hot path once the event engine is fast
(PR 3), so its solvers carry lightweight instrumentation: every best
response records how many objective/congestion evaluations it spent and
how many batched grid calls it made, and experiment reports surface the
deterministic totals.  The module also owns the switch between the
vectorized grid evaluation core and the legacy scalar scan, so the two
can be A/B-timed on the same box (``benchmarks/bench_solver.py``) and
the scalar path stays available as a correctness oracle.

Mirrors the toggle idiom of :mod:`repro.sim.cache`:

* environment: ``GREEDWORK_SOLVER_VECTOR=off`` (or ``0``/``false``/
  ``no``) disables the vectorized paths for the whole process;
  ``GREEDWORK_SOLVER_VECTOR=auto`` selects per-call between the grid
  and scalar paths from the discipline's measured cost model;
* programmatic: :func:`set_vectorized` overrides the environment for
  the current process (``None`` restores environment control).

The switch is tri-state (:func:`mode`): ``"on"`` always uses the
batched grid when a discipline advertises one, ``"off"`` always scans
scalar, and ``"auto"`` consults the discipline's
:attr:`~repro.disciplines.base.AllocationFunction.grid_min_users`
cost hint — disciplines whose scalar objective is a single reduction
(FIFO's one ``sum``) beat the fixed numpy call overhead of the grid
path at small N, and auto keeps them on the faster path without
giving up the grid at scale.  Auto is a pure cost decision: its
output is bit-identical to whichever pure mode it selects (``"off"``
below the hint, ``"on"`` at or above it), and the two pure paths
themselves agree to within the maximizer tolerance (both refine
inside the same scan bracket).

Counters nest: :func:`track_solver` pushes a fresh
:class:`SolverCounters` onto a stack and :func:`record` adds to every
frame, so an outer tracker (the experiment runner) sees the totals of
everything beneath it.  Wall time is recorded but deliberately kept
out of experiment stdout — report output must stay byte-identical
across serial/parallel runs and across machines; only the
deterministic evaluation counts are printed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

ENV_TOGGLE = "GREEDWORK_SOLVER_VECTOR"
_DISABLING_VALUES = {"0", "off", "false", "no"}
_AUTO_VALUES = {"auto", "cost", "adaptive"}

_vector_override: Optional[str] = None


def mode() -> str:
    """The solver-vectorization mode: ``"on"``, ``"off"`` or ``"auto"``."""
    if _vector_override is not None:
        return _vector_override
    raw = os.environ.get(ENV_TOGGLE)
    if raw is None:
        return "on"
    cleaned = raw.strip().lower()
    if cleaned in _DISABLING_VALUES:
        return "off"
    if cleaned in _AUTO_VALUES:
        return "auto"
    return "on"


def vectorized() -> bool:
    """Whether solvers may use the batched grid evaluation core.

    True in both ``"on"`` and ``"auto"`` modes; ``"auto"`` additionally
    lets the call site fall back to the scalar path when the
    discipline's cost hint says the grid loses at the problem size.
    """
    return mode() != "off"


def set_vectorized(value) -> None:
    """Force the vectorization switch; ``None`` defers to the env.

    Accepts the historical booleans (``True`` → ``"on"``, ``False`` →
    ``"off"``) as well as the mode strings ``"on"``/``"off"``/
    ``"auto"``.
    """
    # greedwork: ignore[GW601] -- deliberately per-process: each worker
    # re-applies the parent's flag from its payload (registry._run_one).
    global _vector_override
    if value is None:
        _vector_override = None
    elif isinstance(value, bool):
        _vector_override = "on" if value else "off"
    elif value in ("on", "off", "auto"):
        _vector_override = value
    else:
        raise ValueError(
            f"expected True/False/None or 'on'/'off'/'auto', got {value!r}")


@dataclass
class SolverCounters:
    """Evaluation totals accumulated inside one :func:`track_solver`.

    Attributes
    ----------
    objective_evals:
        Scalar utility-objective evaluations (one per candidate rate).
    congestion_evals:
        Allocation congestion evaluations; equals ``objective_evals``
        on the best-response path but also counts certification and
        adversarial-search congestion calls that bypass a utility.
    grid_calls:
        Batched evaluations (one numpy pass over a whole grid).
    wall_time:
        Seconds spent inside instrumented solver sections.  Never
        printed in experiment output (non-deterministic); exposed for
        benchmarks.
    """

    objective_evals: int = 0
    congestion_evals: int = 0
    grid_calls: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """The counters as a plain dict (benchmark/report records)."""
        return {
            "objective_evals": self.objective_evals,
            "congestion_evals": self.congestion_evals,
            "grid_calls": self.grid_calls,
            "wall_time": self.wall_time,
        }


_STACK: List[SolverCounters] = []


def record(objective_evals: int = 0, congestion_evals: int = 0,
           grid_calls: int = 0, wall_time: float = 0.0) -> None:
    """Add to every active tracker (no-op when none is active)."""
    for frame in _STACK:
        frame.objective_evals += objective_evals
        frame.congestion_evals += congestion_evals
        frame.grid_calls += grid_calls
        frame.wall_time += wall_time


@contextmanager
def track_solver() -> Iterator[SolverCounters]:
    """Collect solver counters for the duration of the ``with`` block."""
    frame = SolverCounters()
    # greedwork: ignore[GW601] -- per-process instrumentation stack;
    # counters are returned to the caller and merged in the parent.
    _STACK.append(frame)
    try:
        yield frame
    finally:
        # By identity: ``list.remove`` compares dataclasses by value and
        # would drop an outer frame whose counters happen to be equal.
        _STACK[:] = [other for other in _STACK if other is not frame]
