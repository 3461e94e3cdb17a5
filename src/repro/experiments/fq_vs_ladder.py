"""Section 5.2: Fair Queueing vs the Fair Share ladder, quantified.

The paper credits Fair Queueing [3] with three advantages over FIFO —
fair throughput allocation, lower delay for sources using less than
their share, and protection from ill-behaved sources — and presents
Fair Share as its analytic twin ("similar in spirit", explicitly *not*
claimed mathematically equal).  This experiment runs an actual
packet-level Fair Queueing scheduler (start-time fair queueing with
real packet sizes) next to FIFO and the Table-1 ladder and checks each
claim:

1. a small user's mean queue under FQ beats FIFO's proportional share;
2. under FQ the per-user queues move from FIFO's proportional split
   toward the Fair Share ordering (small users relieved, big users
   charged);
3. a victim coexisting with an overloading flooder keeps a *bounded*
   queue under FQ and the ladder, while FIFO's victim diverges.
"""

from __future__ import annotations

import numpy as np

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.experiments.base import ExperimentReport, Table
from repro.sim.runner import (SimulationConfig, paired_configs, simulate,
                              simulate_to_precision)

EXPERIMENT_ID = "fq_vs_ladder"
CLAIM = ("Packet-level Fair Queueing delivers the paper's three claims "
         "(small-user delay, FS-leaning allocation, flood protection) "
         "without the ladder's rate oracle")

RATES = (0.1, 0.2, 0.3)


def run(seed: int = 0, fast: bool = False) -> ExperimentReport:
    """Three-way comparison: FIFO vs SFQ vs Fair Share ladder."""
    rates = np.asarray(RATES, dtype=float)
    # Adaptive precision with common random numbers: the three
    # policies share one seed (identical arrival realizations by the
    # engine's draw-order contract), and each runs until its
    # control-variate-adjusted CI half-width meets the target.  The
    # old fixed horizon is kept for the events-saved accounting.
    fixed_horizon = 30000.0 if fast else 120000.0
    initial_horizon = 8000.0 if fast else 20000.0
    warmup = 1000.0 if fast else 5000.0
    target = 0.06 if fast else 0.03
    fifo_ref = ProportionalAllocation().congestion(rates)
    fs_ref = FairShareAllocation().congestion(rates)

    base = SimulationConfig(rates=rates, policy="fifo",
                            horizon=initial_horizon, warmup=warmup,
                            seed=seed)
    measured = {}
    events_simulated = 0
    events_fixed_estimate = 0
    targets_met = True
    for config in paired_configs(base, ("fifo", "fair-queueing",
                                        "fair-share")):
        precision = simulate_to_precision(config, target_halfwidth=target)
        measured[config.policy] = precision.summary.means
        targets_met = targets_met and precision.achieved
        events_simulated += precision.events
        final_horizon = precision.horizons[-1]
        events_fixed_estimate += int(round(
            precision.events * max(fixed_horizon, final_horizon)
            / final_horizon))

    alloc_table = Table(
        title="Per-user mean queues at fixed rates (0.1, 0.2, 0.3)",
        headers=["user", "FIFO sim", "FQ sim", "ladder sim",
                 "proportional (theory)", "C^FS (theory)"])
    for i in range(3):
        alloc_table.add_row(i, float(measured["fifo"][i]),
                            float(measured["fair-queueing"][i]),
                            float(measured["fair-share"][i]),
                            float(fifo_ref[i]), float(fs_ref[i]))

    small_user_better = bool(
        measured["fair-queueing"][0] < measured["fifo"][0] - 1e-3)
    # Directional check: FQ moves each user's queue from the
    # proportional value toward C^FS (down for small, up for big).
    toward_fs = True
    for i in range(3):
        direction = np.sign(fs_ref[i] - fifo_ref[i])
        moved = float(measured["fair-queueing"][i] - measured["fifo"][i])
        if direction * moved < -0.02:
            toward_fs = False

    # Flooding: attacker overloads the link; victim should stay stable
    # under FQ and the ladder, diverge under FIFO.
    attack = np.array([0.15, 1.2])
    flood_horizon = 10000.0 if fast else 40000.0
    flood_table = Table(
        title="Victim (rate 0.15) vs flooding attacker (rate 1.2)",
        headers=["policy", "victim mean queue", "attacker mean queue"])
    victim = {}
    for k, policy in enumerate(("fifo", "fair-queueing", "fair-share")):
        # The claim is divergence: FIFO's victim queue grows without
        # bound at rho > 1, so no CI target exists and a fixed
        # observation window is the measurement.
        result = simulate(SimulationConfig(
            rates=attack, policy=policy, horizon=flood_horizon,
            warmup=flood_horizon * 0.05, seed=seed + 10 + k))
        victim[policy] = float(result.mean_queues[0])
        flood_table.add_row(policy, float(result.mean_queues[0]),
                            float(result.mean_queues[1]))
    protected = (victim["fair-queueing"] < 2.0
                 and victim["fair-share"] < 2.0
                 and victim["fifo"] > 10.0)

    events_saved = max(0, events_fixed_estimate - events_simulated)
    passed = small_user_better and toward_fs and protected
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID, claim=CLAIM, passed=passed,
        tables=[alloc_table, flood_table],
        summary={
            "small_user_beats_fifo": small_user_better,
            "fq_moves_toward_fair_share": toward_fs,
            "fq_protects_victim": protected,
            "fq_victim_queue_under_flood": victim["fair-queueing"],
            "fifo_victim_queue_under_flood": victim["fifo"],
            "all_targets_met": targets_met,
            "events_simulated": events_simulated,
            "events_fixed_horizon_estimate": events_fixed_estimate,
            "events_saved_estimate": events_saved,
        },
        notes=["FQ = start-time fair queueing on real exponential "
               "packet sizes; no rate oracle, unlike the Table-1 "
               "ladder", "the paper claims similarity in spirit, not "
               "equality — FQ protects strongly but does not meet the "
               "ladder's exact g(Nr)/N bound",
               "allocation part uses shared-seed common random numbers "
               "with adaptive precision; the flood part is fixed-horizon "
               "by design (the FIFO victim's queue diverges — no CI "
               "target exists)",
               f"events saved vs the fixed horizon {fixed_horizon:g}: "
               f"{events_saved} of {events_fixed_estimate} (estimate)"])
