"""Stackelberg equilibria: sophisticated leaders vs. naive followers.

A leader commits to a rate and lets the remaining users equilibrate in
the induced subsystem; she then picks the commitment maximizing her own
utility over the followers' equilibria (Definition 5).  Under FIFO a
leader can profit from this sophistication; under Fair Share she
cannot — every Stackelberg equilibrium is already a Nash equilibrium
(Theorem 5), so naive hill climbers are safe from strategic
exploitation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.game.nash import NashResult, solve_nash
from repro.numerics.optimize import multistart_maximize
from repro.users.utility import Utility


@dataclass
class StackelbergResult:
    """Outcome of a Stackelberg (leader-follower) computation.

    Attributes
    ----------
    leader:
        Index of the leading user.
    rates:
        Full rate vector: leader's commitment + followers' equilibrium.
    leader_utility:
        The leader's utility at the Stackelberg point.
    follower_converged:
        Whether the follower equilibrium at the optimum converged.
    evaluations:
        Number of leader-rate candidates examined.
    """

    leader: int
    rates: np.ndarray
    leader_utility: float
    follower_converged: bool
    evaluations: int


def follower_equilibrium(allocation, profile: Sequence[Utility],
                         leader: int, leader_rate: float,
                         r0: Optional[Sequence[float]] = None,
                         tol: float = 1e-9) -> NashResult:
    """Nash equilibrium of the subsystem with the leader's rate frozen.

    Returns a full-length :class:`NashResult` (leader entry included)
    for convenience.
    """
    n = len(profile)
    sub = allocation.subsystem({leader: leader_rate})
    follower_profile = [u for i, u in enumerate(profile) if i != leader]
    if r0 is None:
        start = None
    else:
        start = np.asarray([r0[i] for i in range(n) if i != leader],
                           dtype=float)
    inner = solve_nash(sub, follower_profile, r0=start, tol=tol)
    full = sub.embed(inner.rates)
    congestion = allocation.congestion(full)
    utilities = np.array([u.value(float(full[i]), float(congestion[i]))
                          for i, u in enumerate(profile)])
    return NashResult(rates=full, congestion=congestion,
                      utilities=utilities, converged=inner.converged,
                      iterations=inner.iterations, max_gain=inner.max_gain,
                      method="follower-equilibrium")


def solve_stackelberg(allocation, profile: Sequence[Utility], leader: int,
                      n_scan: int = 25,
                      r_max: Optional[float] = None) -> StackelbergResult:
    """Optimize the leader's commitment over follower equilibria.

    The outer problem is one-dimensional; each candidate commitment
    requires an inner Nash solve for the followers, so the scan is kept
    coarse and refined by golden-section search around the best
    candidate.  Consecutive commitments differ only slightly, so each
    inner solve warm-starts from the follower equilibrium already
    solved at the nearest commitment.
    """
    if not 0 <= leader < len(profile):
        raise ValueError(f"leader index {leader} out of range")
    capacity = getattr(allocation.curve, "capacity", math.inf)
    hi = (capacity * (1.0 - 1e-6) if math.isfinite(capacity) else 4.0)
    if r_max is not None:
        hi = float(r_max)

    cache: Dict[float, NashResult] = {}

    def nearest_start(rate: float) -> Optional[np.ndarray]:
        """The solved follower equilibrium nearest ``rate``, if any."""
        if not cache:
            return None
        return cache[min(cache, key=lambda key: abs(key - rate))].rates

    def leader_value(rate: float) -> float:
        key = round(rate, 12)
        if key not in cache:
            cache[key] = follower_equilibrium(allocation, profile, leader,
                                              rate, r0=nearest_start(rate))
        return float(cache[key].utilities[leader])

    best = multistart_maximize(leader_value, 1e-5, hi, n_scan=n_scan,
                               tol=1e-8)
    final = follower_equilibrium(allocation, profile, leader, best.x,
                                 r0=nearest_start(best.x))
    return StackelbergResult(leader=leader, rates=final.rates,
                             leader_utility=float(
                                 final.utilities[leader]),
                             follower_converged=final.converged,
                             evaluations=best.evaluations)


def leader_advantage(allocation, profile: Sequence[Utility], leader: int,
                     nash: Optional[NashResult] = None,
                     n_scan: int = 25) -> float:
    """``U_leader(Stackelberg) - U_leader(commit to the Nash rate)``.

    The baseline is evaluated through the *same* follower-equilibrium
    pipeline as the Stackelberg optimum, so inner-solver noise cancels
    and the advantage is nonnegative by construction (the Nash rate is
    always an available commitment).  Positive advantage is the
    incentive to deploy sophisticated flow control; Fair Share drives
    it to zero.
    """
    if nash is None:
        nash = solve_nash(allocation, profile)
    stackelberg = solve_stackelberg(allocation, profile, leader,
                                    n_scan=n_scan)
    baseline = follower_equilibrium(allocation, profile, leader,
                                    float(nash.rates[leader]))
    advantage = stackelberg.leader_utility - float(
        baseline.utilities[leader])
    return max(float(advantage), 0.0)
