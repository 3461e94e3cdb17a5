"""Seeded random utility-profile generators and the Lemma-5 construction.

A *profile* is a list of utilities, one per user (the paper's
``U in AU^N``).  Experiments sweep over seeded random profiles; the
Lemma-5 construction builds a profile that plants a Nash equilibrium at
a chosen rate vector for a chosen allocation function — the paper's
main proof device, and our main experimental probe.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.disciplines.base import AllocationFunction
from repro.users.families import (
    ExponentialUtility,
    LinearUtility,
    PowerUtility,
    QuadraticUtility,
)
from repro.users.utility import Utility


def random_linear_profile(n_users: int, rng: np.random.Generator,
                          gamma_low: float = 0.2,
                          gamma_high: float = 5.0) -> List[Utility]:
    """Linear utilities with log-uniform congestion sensitivities."""
    gammas = np.exp(rng.uniform(np.log(gamma_low), np.log(gamma_high),
                                size=n_users))
    return [LinearUtility(gamma=float(g)) for g in gammas]


def random_exponential_profile(n_users: int, rng: np.random.Generator,
                               curvature_low: float = 1.0,
                               curvature_high: float = 30.0) -> List[Utility]:
    """Lemma-5 family utilities with random anchors and curvatures."""
    log_alpha = (np.log(0.5), np.log(8.0))
    profile: List[Utility] = []
    for _ in range(n_users):
        alpha = float(np.exp(rng.uniform(*log_alpha)))
        gamma = 1.0
        beta = float(rng.uniform(curvature_low, curvature_high))
        nu = float(rng.uniform(curvature_low, curvature_high))
        r_ref = float(rng.uniform(0.05, 0.5))
        c_ref = float(rng.uniform(0.1, 2.0))
        profile.append(ExponentialUtility(alpha=alpha, beta=beta,
                                          gamma=gamma, nu=nu,
                                          r_ref=r_ref, c_ref=c_ref))
    return profile


def random_power_profile(n_users: int,
                         rng: np.random.Generator) -> List[Utility]:
    """Power utilities with random exponents in the concave range.

    ``p <= 1 <= q`` keeps the profile in concave AU, where interior
    equilibria exist under every discipline (marginal congestion pain
    vanishes at c = 0 and grows thereafter).
    """
    log_gamma = (np.log(0.3), np.log(4.0))
    profile: List[Utility] = []
    for _ in range(n_users):
        gamma = float(np.exp(rng.uniform(*log_gamma)))
        p = float(rng.uniform(0.6, 1.0))
        q = float(rng.uniform(1.0, 2.0))
        profile.append(PowerUtility(gamma=gamma, p=p, q=q))
    return profile


def random_mixed_profile(n_users: int,
                         rng: np.random.Generator) -> List[Utility]:
    """Each user drawn independently from a random family.

    Mixing families matters: several theorems fail only for
    *heterogeneous* populations (e.g. Theorem 2 makes symmetric rates
    necessary for Nash/Pareto coincidence).
    """
    log_gamma = (np.log(0.3), np.log(4.0))
    profile: List[Utility] = []
    for _ in range(n_users):
        kind = rng.integers(0, 4)
        if kind == 0:
            gamma = float(np.exp(rng.uniform(*log_gamma)))
            profile.append(LinearUtility(gamma=gamma))
        elif kind == 1:
            profile.extend(random_exponential_profile(1, rng))
        elif kind == 2:
            profile.extend(random_power_profile(1, rng))
        else:
            gamma = float(np.exp(rng.uniform(*log_gamma)))
            b = float(rng.uniform(-0.4, 0.0))   # concave variant
            profile.append(QuadraticUtility(gamma=gamma, b=b))
    return profile


def lemma5_profile(allocation: AllocationFunction,
                   rates: Sequence[float],
                   beta: float = 40.0,
                   nu: float = 40.0,
                   rng: Optional[np.random.Generator] = None) -> List[Utility]:
    """Plant a Nash equilibrium at ``rates`` (Lemma 5).

    For each user, anchor an :class:`ExponentialUtility` at
    ``(r_i, C_i(r))`` with ``alpha_i / gamma_i = dC_i/dr_i`` so the Nash
    first-derivative condition holds, and curvature ``beta, nu`` large
    enough that the anchor is the global best response.

    Parameters
    ----------
    allocation:
        The allocation function the profile is tailored to.
    rates:
        Target Nash point, inside the stable region.
    beta, nu:
        Curvatures; larger pins the equilibrium more sharply.  When
        ``rng`` is given, each user's curvatures are jittered around
        these values for diversity.
    """
    r = np.asarray(rates, dtype=float)
    congestion = allocation.congestion(r)
    if not np.all(np.isfinite(congestion)):
        raise ValueError(
            f"target rates {r} are outside the stable region of "
            f"{allocation.name}")
    profile: List[Utility] = []
    # own_derivative is a scalar per-user API and profiles are a
    # handful of users; vectorizing would need a full Jacobian for no
    # measurable gain.
    for i in range(r.size):
        slope = allocation.own_derivative(r, i)
        gamma = 1.0
        alpha = max(float(slope), 1e-9) * gamma
        b = beta
        v = nu
        if rng is not None:
            b *= float(rng.uniform(0.75, 1.5))
            v *= float(rng.uniform(0.75, 1.5))
        profile.append(ExponentialUtility(alpha=alpha, beta=b, gamma=gamma,
                                          nu=v, r_ref=float(r[i]),
                                          c_ref=float(congestion[i])))
    return profile
