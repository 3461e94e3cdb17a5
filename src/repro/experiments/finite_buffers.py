"""Beyond Nagle's infinite storage: does protection survive finite buffers?

The paper's switch (after Nagle [26]) never drops — congestion is pure
delay.  Real switches have finite buffers, so the natural question for
the paper's central guarantee is whether Fair Share's protection
carries over to *loss*.  This experiment bounds the buffer and floods
the switch:

* FIFO with tail-drop spreads loss indiscriminately: the innocent
  victim loses packets roughly in proportion to the flooder.
* the Fair Share ladder with priority push-out (evict the
  lowest-priority resident) concentrates all loss on the flooder: the
  victim keeps her full throughput, near-zero loss, and a queue still
  under the Theorem-8 bound.

Loss-space protection is the finite-buffer reading of Theorem 8.
"""

from __future__ import annotations

import numpy as np

from repro.disciplines.fair_share import FairShareAllocation
from repro.experiments.base import ExperimentReport, Table
from repro.sim.buffers import FiniteBufferPolicy
from repro.sim.queues import FairShareLadderQueue, FIFOQueue
from repro.sim.runner import SimulationConfig, simulate

EXPERIMENT_ID = "finite_buffers"
CLAIM = ("With finite buffers under flooding, the push-out Fair Share "
         "ladder concentrates all loss on the flooder; tail-drop FIFO "
         "makes the victim share it")

VICTIM_RATE = 0.15
FLOOD_RATE = 1.2


def run(seed: int = 0, fast: bool = False) -> ExperimentReport:
    """Flooding with bounded buffers, FIFO tail-drop vs ladder push-out."""
    rates = np.array([VICTIM_RATE, FLOOD_RATE])
    horizon = 15000.0 if fast else 60000.0
    warmup = horizon * 0.05
    bound = FairShareAllocation().protection_bound(VICTIM_RATE, 2)
    capacities = (10, 20, 50) if not fast else (20,)

    table = Table(
        title=f"Victim (rate {VICTIM_RATE}) vs flooder (rate "
              f"{FLOOD_RATE}), finite buffers",
        headers=["buffer", "policy", "victim loss fraction",
                 "flooder loss fraction", "victim throughput",
                 "victim mean queue"])
    fifo_victim_suffers = False
    ladder_victim_clean = True
    for capacity in capacities:
        for label, build in (
                ("fifo tail-drop",
                 lambda: FiniteBufferPolicy(FIFOQueue(), capacity)),
                ("ladder push-out",
                 lambda: FiniteBufferPolicy(
                     FairShareLadderQueue(rates), capacity,
                     push_out=True))):
            # The verdict is a loss *fraction* over a known offered load
            # (rho > 1, lossy finite buffers): there is no queue-CI
            # target, and the control-variate laws assume lossless
            # Poisson flow.
            result = simulate(SimulationConfig(
                rates=rates, policy=build(), horizon=horizon,
                warmup=warmup, seed=seed))
            offered = rates * horizon
            loss_fraction = result.losses / offered
            table.add_row(capacity, label, float(loss_fraction[0]),
                          float(loss_fraction[1]),
                          float(result.throughputs[0]),
                          float(result.mean_queues[0]))
            if label.startswith("fifo") and loss_fraction[0] > 0.05:
                fifo_victim_suffers = True
            if label.startswith("ladder"):
                if loss_fraction[0] > 0.01:
                    ladder_victim_clean = False
                if result.mean_queues[0] > bound * 1.15:
                    ladder_victim_clean = False
                if result.throughputs[0] < VICTIM_RATE * 0.9:
                    ladder_victim_clean = False

    passed = fifo_victim_suffers and ladder_victim_clean
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID, claim=CLAIM, passed=passed,
        tables=[table],
        summary={
            "fifo_victim_loses_packets": fifo_victim_suffers,
            "ladder_victim_lossless": ladder_victim_clean,
            "theorem8_bound": float(bound),
        },
        notes=["push-out evicts the newest lowest-priority resident — "
               "the finite-buffer reading of the ladder's insulation",
               "loss fraction = drops / offered packets over the whole "
               "run"])
