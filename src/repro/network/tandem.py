"""Packet-level tandem of two switches.

The Section-5.4 caveat made testable: the analytic network model feeds
each switch a Poisson stream, but real departure processes of
non-FIFO disciplines are not Poisson.  This simulator runs two
unit-rate exponential servers in series — every packet visits switch 0
then switch 1 — under any pair of queue policies, and measures per-user
mean queues at each hop.

For FIFO/FIFO the model is a Jackson network, so the measured queues
match the analytic per-switch M/M/1 allocations *exactly* in
distribution (Burke's theorem).  For priority ladders the comparison
quantifies the Poisson-output approximation error.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.exceptions import SimulationError
from repro.numerics.rng import default_rng
from repro.sim.measurements import QueueTracker
from repro.sim.packet import Packet
from repro.sim.queues import QueuePolicy, make_policy


@dataclass
class TandemConfig:
    """Configuration of a two-switch tandem simulation.

    Attributes
    ----------
    rates:
        Per-user Poisson arrival rates (every user crosses both
        switches).
    policies:
        Two queue policies (instances or names); entry 0 is the first
        hop.
    service_rates:
        Per-switch exponential service rates.
    horizon, warmup, seed, n_batches:
        As in the single-switch simulator.
    """

    rates: Sequence[float]
    policies: Sequence[Union[str, QueuePolicy]] = ("fifo", "fifo")
    service_rates: Sequence[float] = (1.0, 1.0)
    horizon: float = 20000.0
    warmup: float = 1000.0
    seed: int = 0
    n_batches: int = 20


@dataclass
class TandemResult:
    """Measured outcome: per-switch, per-user mean queues.

    Attributes
    ----------
    mean_queues:
        Shape ``(2, N)``: time-average number of user ``i``'s packets
        at each switch.
    total_mean_queues:
        Per-user sums across both switches (the network ``c_i``).
    batches:
        Per-switch batch-means summaries.
    arrivals, departures:
        External arrivals and final (second-hop) departures.
    """

    mean_queues: np.ndarray
    total_mean_queues: np.ndarray
    batches: list
    arrivals: int
    departures: int


def _resolve(policy, rates, n_users):
    if isinstance(policy, QueuePolicy):
        return policy
    return make_policy(policy, rates=rates, n_users=n_users)


def simulate_tandem(config: TandemConfig) -> TandemResult:
    """Run the two-hop tandem to its horizon.

    Both servers are exponential, so the same jump-chain trick as the
    single-switch engine applies independently at each hop: whenever a
    hop's state changes, its next completion is redrawn ``Exp(mu)`` for
    whichever packet its policy serves.
    """
    rates = np.asarray(config.rates, dtype=float)
    if rates.ndim != 1 or rates.size == 0:
        raise SimulationError("rates must be a non-empty vector")
    if np.any(rates <= 0.0):
        raise SimulationError(f"rates must be positive, got {rates}")
    if len(config.policies) != 2 or len(config.service_rates) != 2:
        raise SimulationError("a tandem has exactly two hops")
    mu = [float(s) for s in config.service_rates]
    if any(s <= 0.0 for s in mu):
        raise SimulationError("service rates must be positive")
    if config.horizon <= config.warmup:
        raise SimulationError("horizon must exceed warmup")
    n = rates.size
    hops = [_resolve(config.policies[k], rates, n) for k in range(2)]
    rng = default_rng(config.seed)
    trackers = [QueueTracker(n, warmup=config.warmup) for _ in range(2)]
    for tracker in trackers:
        tracker.configure_batches(config.horizon,
                                  n_batches=config.n_batches)

    # greedwork: ignore[GW501] -- single-stream tandem toy engine
    # predates VariateStream; its draw order is pinned by the event
    # loop itself and golden-tested, and it never enters CRN pairing.
    arrivals_heap = [(float(rng.exponential(1.0 / rates[i])), i)
                     for i in range(n)]
    heapq.heapify(arrivals_heap)
    completion = [math.inf, math.inf]
    now = 0.0
    n_arrivals = 0
    n_departures = 0

    def advance(t: float) -> None:
        trackers[0].advance(t)
        trackers[1].advance(t)

    def redraw(hop: int) -> None:
        # greedwork: ignore[GW501] -- see the arrivals_heap note above.
        completion[hop] = (now + float(rng.exponential(1.0 / mu[hop]))
                           if len(hops[hop]) > 0 else math.inf)

    # Golden-tested two-hop toy engine predating the chunked kernels;
    # the sharded switch-graph engine (repro.network.sharded) is the
    # chunked-era replacement.
    while True:
        next_arrival = arrivals_heap[0][0]
        next_event = min(next_arrival, completion[0], completion[1])
        if next_event >= config.horizon:
            advance(config.horizon)
            break
        if next_arrival <= completion[0] and next_arrival <= completion[1]:
            event_time, user = heapq.heappop(arrivals_heap)
            advance(event_time)
            now = event_time
            hops[0].push(Packet(user=user, arrival_time=now), rng=rng)
            trackers[0].on_arrival(user)
            n_arrivals += 1
            heapq.heappush(
                arrivals_heap,
                # greedwork: ignore[GW501] -- see arrivals_heap note.
                (now + float(rng.exponential(1.0 / rates[user])), user))
            redraw(0)
        elif completion[0] <= completion[1]:
            advance(completion[0])
            now = completion[0]
            done = hops[0].complete(rng)
            trackers[0].on_departure(done.user)
            # Forward to the second hop as a fresh packet event.
            forwarded = Packet(user=done.user, arrival_time=now)
            hops[1].push(forwarded, rng=rng)
            trackers[1].on_arrival(done.user)
            redraw(0)
            redraw(1)
        else:
            advance(completion[1])
            now = completion[1]
            done = hops[1].complete(rng)
            done.departure_time = now
            trackers[1].on_departure(done.user)
            n_departures += 1
            redraw(1)

    mean_queues = np.vstack([trackers[0].mean_queues(),
                             trackers[1].mean_queues()])
    return TandemResult(mean_queues=mean_queues,
                        total_mean_queues=mean_queues.sum(axis=0),
                        batches=[trackers[0].batch_means(),
                                 trackers[1].batch_means()],
                        arrivals=n_arrivals, departures=n_departures)
