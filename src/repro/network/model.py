"""The multi-switch allocation model.

Users send one Poisson stream each along a fixed *route* (an ordered
set of switches).  Under the Kleinrock independence / Poisson-output
approximation the paper adopts, each switch ``alpha`` behaves as an
independent single-switch system fed by the users whose routes cross
it, and a user's congestion is the sum over her route:

``c_i = sum_{alpha in route(i)} C^alpha_{i}(r restricted to alpha)``.

Each switch carries its own service discipline (allocation function)
and speed; loads are expressed in service units, so a switch of speed
``s`` running discipline ``C`` contributes ``C(r_S / s)`` where ``r_S``
is the vector of rates crossing it.

:class:`NetworkAllocation` is an
:class:`~repro.disciplines.base.AllocationFunction`, so the whole game
layer runs on networks unchanged, batched grid path included: a user's
grid evaluator composes the per-switch evaluators along her route.  It
is *not* symmetric in general (users with different routes are not
interchangeable), which is exactly why the paper says the
single-switch fairness notion loses its meaning on networks, and why
the symmetry-class paths refuse networks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.disciplines.base import AllocationFunction, GridEvaluator
from repro.exceptions import DisciplineError


@dataclass(frozen=True)
class Route:
    """A user's path: the ordered switch indices she crosses."""

    switches: tuple

    def __init__(self, switches: Sequence[int]) -> None:
        object.__setattr__(self, "switches", tuple(int(s) for s in switches))
        if not self.switches:
            raise DisciplineError("a route must cross at least one switch")
        if len(set(self.switches)) != len(self.switches):
            raise DisciplineError(
                f"a route may not revisit a switch, got {self.switches}")

    def crosses(self, switch: int) -> bool:
        """Whether this route passes through ``switch``."""
        return switch in self.switches

    def __iter__(self):
        return iter(self.switches)

    def __len__(self) -> int:
        return len(self.switches)


_NOT_SYMMETRIC = ("network users are not interchangeable; symmetry-class "
                  "evaluation does not apply")


class _CapacityShim:
    """Minimal curve-like object carrying the binding rate capacity.

    The game layer only consults ``curve.capacity`` (to bound rate
    searches); a network's binding constraint is its slowest switch.
    """

    def __init__(self, capacity: float) -> None:
        self.capacity = capacity


class NetworkAllocation(AllocationFunction):
    """Per-switch disciplines composed over user routes.

    Parameters
    ----------
    switches:
        One allocation function per switch (each with the unit-rate
        M/M/1 curve or a compatible convex curve).
    routes:
        One :class:`Route` (or sequence of switch indices) per user.
    speeds:
        Optional per-switch service rates (default 1.0 each).
    """

    #: The grid path composes the switches' own grid evaluators, and the
    #: scalar objective is a whole-network :meth:`congestion` rather
    #: than one ``sum``, so the grid wins at every population.
    vectorized_grid = True
    grid_min_users = 0

    def __init__(self, switches: Sequence[AllocationFunction],
                 routes: Sequence,
                 speeds: Optional[Sequence[float]] = None) -> None:
        self.switches = list(switches)
        if not self.switches:
            raise DisciplineError("need at least one switch")
        self.routes = [route if isinstance(route, Route) else Route(route)
                       for route in routes]
        if not self.routes:
            raise DisciplineError("need at least one user route")
        n_switches = len(self.switches)
        for route in self.routes:
            for switch in route:
                if not 0 <= switch < n_switches:
                    raise DisciplineError(
                        f"route {route.switches} references switch "
                        f"{switch}; only {n_switches} exist")
        if speeds is None:
            self.speeds = np.ones(n_switches)
        else:
            self.speeds = np.asarray(speeds, dtype=float)
            if self.speeds.size != n_switches:
                raise DisciplineError(
                    f"{self.speeds.size} speeds for {n_switches} switches")
            if np.any(self.speeds <= 0.0):
                raise DisciplineError("switch speeds must be positive")
        #: users crossing each switch, in user order.
        self.members: List[np.ndarray] = [
            np.array([i for i, route in enumerate(self.routes)
                      if route.crosses(alpha)], dtype=int)
            for alpha in range(n_switches)
        ]
        self.name = "network(" + ",".join(s.name for s in self.switches) + ")"
        # The base initializer binds a service curve and its feasibility
        # set; a network has neither, only its binding capacity.
        self.curve = _CapacityShim(float(self.speeds.min()))

    @property
    def n_users(self) -> int:
        return len(self.routes)

    # -- evaluation ----------------------------------------------------------

    def congestion(self, rates: Sequence[float]) -> np.ndarray:
        """Total per-user congestion summed along routes."""
        r = np.asarray(rates, dtype=float)
        if r.size != self.n_users:
            raise DisciplineError(
                f"expected {self.n_users} rates, got {r.size}")
        totals = np.zeros(self.n_users)
        for alpha, allocation in enumerate(self.switches):
            members = self.members[alpha]
            if members.size == 0:
                continue
            local = allocation.congestion(r[members] / self.speeds[alpha])
            totals[members] += local
        return totals

    # -- batched evaluation --------------------------------------------------

    def grid_evaluator(self, rates: Sequence[float], i: int
                       ) -> GridEvaluator:
        """User ``i``'s route congestion over candidate own-rates.

        Each hop prepares its switch's own evaluator against the
        opponents crossing it (in that switch's service units) once;
        a grid call evaluates every hop at ``xs / speed`` and sums the
        hops from 0.0 in switch-index order, as :meth:`congestion`
        does, so both paths add the same terms in the same order.
        """
        r = np.asarray(rates, dtype=float)
        hops = []
        for alpha in sorted(self.routes[i]):
            members = self.members[alpha]
            speed = self.speeds[alpha]
            local = int(np.nonzero(members == i)[0][0])
            hops.append((self.switches[alpha].grid_evaluator(
                r[members] / speed, local), speed))

        def evaluate(xs: Sequence[float]) -> np.ndarray:
            cand = np.asarray(xs, dtype=float)
            total = np.zeros(cand.shape)
            for hop, speed in hops:
                total += hop(cand / speed)
            return total

        return evaluate

    def congestion_grid(self, rates: Sequence[float], i: int,
                        xs: Sequence[float]) -> np.ndarray:
        """``C_i`` over candidate own-rates, composed along the route."""
        return self.grid_evaluator(rates, i)(xs)

    def congestion_many(self, profiles: Sequence[Sequence[float]]
                        ) -> np.ndarray:
        """Congestion matrix for a batch of profiles, one pass per switch."""
        batch = np.asarray(profiles, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.n_users:
            raise DisciplineError(
                f"profiles must be 2-D (batch, {self.n_users}), got "
                f"{batch.shape}")
        totals = np.zeros(batch.shape)
        for alpha, allocation in enumerate(self.switches):
            members = self.members[alpha]
            if members.size == 0:
                continue
            local = allocation.congestion_many(
                batch[:, members] / self.speeds[alpha])
            totals[:, members] += local
        return totals

    # -- symmetry classes ------------------------------------------------------
    # Users on different routes are not interchangeable, so the
    # class-space paths (which assume a symmetric allocation) refuse
    # networks instead of silently expanding classes.

    def class_congestion(self, class_rates: Sequence[float],
                         counts: Sequence[int]) -> np.ndarray:
        raise DisciplineError(_NOT_SYMMETRIC)

    def class_deviation_evaluator(self, class_rates: Sequence[float],
                                  counts: Sequence[int], i: int,
                                  include_self: bool = False
                                  ) -> GridEvaluator:
        raise DisciplineError(_NOT_SYMMETRIC)

    # -- derivatives -----------------------------------------------------

    def jacobian(self, rates: Sequence[float]) -> np.ndarray:
        """``dC_i/dr_j`` summed over shared switches (chain rule)."""
        r = np.asarray(rates, dtype=float)
        n = self.n_users
        out = np.zeros((n, n))
        for alpha, allocation in enumerate(self.switches):
            members = self.members[alpha]
            if members.size == 0:
                continue
            local = allocation.jacobian(r[members] / self.speeds[alpha])
            out[np.ix_(members, members)] += local / self.speeds[alpha]
        return out

    def own_derivative(self, rates: Sequence[float], i: int) -> float:
        """``dC_i/dr_i`` summed over user ``i``'s route."""
        r = np.asarray(rates, dtype=float)
        total = 0.0
        for alpha in self.routes[i]:
            allocation = self.switches[alpha]
            members = self.members[alpha]
            local_index = int(np.nonzero(members == i)[0][0])
            slope = allocation.own_derivative(
                r[members] / self.speeds[alpha], local_index)
            total += slope / self.speeds[alpha]
        return total

    def cross_derivative(self, rates: Sequence[float], i: int,
                         j: int) -> float:
        """``dC_i/dr_j`` through the switches both routes share."""
        if i == j:
            return self.own_derivative(rates, i)
        return float(self.jacobian(rates)[i, j])

    def own_second_derivative(self, rates: Sequence[float], i: int) -> float:
        """``d^2 C_i/dr_i^2`` summed over user ``i``'s route."""
        r = np.asarray(rates, dtype=float)
        total = 0.0
        for alpha in self.routes[i]:
            allocation = self.switches[alpha]
            members = self.members[alpha]
            local_index = int(np.nonzero(members == i)[0][0])
            curve = allocation.own_second_derivative(
                r[members] / self.speeds[alpha], local_index)
            total += curve / self.speeds[alpha] ** 2
        return total

    def mixed_second_derivative(self, rates: Sequence[float], i: int,
                                j: int) -> float:
        """``d^2 C_i/dr_i dr_j`` through shared switches."""
        if i == j:
            return self.own_second_derivative(rates, i)
        r = np.asarray(rates, dtype=float)
        total = 0.0
        for alpha in self.routes[i]:
            if not self.routes[j].crosses(alpha):
                continue
            allocation = self.switches[alpha]
            members = self.members[alpha]
            local_i = int(np.nonzero(members == i)[0][0])
            local_j = int(np.nonzero(members == j)[0][0])
            curve = allocation.mixed_second_derivative(
                r[members] / self.speeds[alpha], local_i, local_j)
            total += curve / self.speeds[alpha] ** 2
        return total

    # -- structure ---------------------------------------------------------

    def in_stable_region(self, rates: Sequence[float]) -> bool:
        """All switch loads strictly below their capacities."""
        r = np.asarray(rates, dtype=float)
        for alpha in range(len(self.switches)):
            members = self.members[alpha]
            load = float(r[members].sum()) / float(self.speeds[alpha])
            if load >= self.switches[alpha].curve.capacity:
                return False
        return True

    def protection_bound(self, rates_i: float, i: int) -> float:
        """Sum of per-switch symmetric bounds along user ``i``'s route.

        Under Fair Share at every hop, user ``i``'s total congestion is
        bounded by the sum over her route of ``g(N_alpha x)/N_alpha``
        with ``x`` her rate in switch-``alpha`` service units — the
        network extension of Theorem 8.
        """
        total = 0.0
        for alpha in self.routes[i]:
            n_alpha = int(self.members[alpha].size)
            x = rates_i / float(self.speeds[alpha])
            load = n_alpha * x
            curve = self.switches[alpha].curve
            if load >= curve.capacity:
                return math.inf
            total += curve.value(load) / n_alpha
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"NetworkAllocation(switches={len(self.switches)}, "
                f"users={self.n_users})")
