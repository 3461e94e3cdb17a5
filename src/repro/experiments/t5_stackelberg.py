"""Theorem 5: sophistication pays under FIFO, not under Fair Share.

A Stackelberg leader commits to a rate and lets the remaining users
equilibrate in the induced subsystem (Definition 5).  On the witness
game of Theorem 4 — where FIFO has a whole component of equilibria —
a FIFO leader steers play to her favorite point and strictly beats
committing to the default Nash rate; under Fair Share the Stackelberg
point coincides with the unique Nash point (leader advantage zero), so
naive hill climbers cannot be exploited.

The second part demonstrates robust convergence: iterated elimination
of strictly dominated rates (``S^inf``) collapses to a single grid
point under Fair Share but remains a fat set under FIFO on the same
witness game — the formal content of "any reasonable learner converges
under Fair Share".
"""

from __future__ import annotations

import numpy as np

from repro.disciplines.fair_share import FairShareAllocation
from repro.disciplines.proportional import ProportionalAllocation
from repro.experiments.base import ExperimentReport, Table
from repro.game.learning import iterated_elimination
from repro.game.nash import solve_nash
from repro.game.stackelberg import leader_advantage
from repro.game.witnesses import witness_profile
from repro.users.families import LinearUtility

EXPERIMENT_ID = "t5_stackelberg"
CLAIM = ("Leader advantage is positive under FIFO and zero under Fair "
         "Share; iterated elimination collapses to a point only under "
         "Fair Share")


def run(seed: int = 0, fast: bool = False) -> ExperimentReport:
    """Leader-advantage and S^inf comparison."""
    fs = FairShareAllocation()
    fifo = ProportionalAllocation()
    n_scan = 17 if fast else 33

    cases = [
        ("witness (multi-eq under FIFO)", witness_profile()),
        ("linear (0.25, 0.35)", [LinearUtility(gamma=0.25),
                                 LinearUtility(gamma=0.35)]),
    ]
    if fast:
        cases = cases[:1]

    lead_table = Table(
        title="Leader advantage vs committing to the Nash rate",
        headers=["profile", "leader", "FIFO advantage", "FS advantage"])
    fifo_gains = False
    fs_flat = True
    for label, profile in cases:
        # Every leader commits against the same full-game equilibrium.
        fifo_nash = solve_nash(fifo, profile)
        fs_nash = solve_nash(fs, profile)
        for leader in range(len(profile)):
            fifo_adv = leader_advantage(fifo, profile, leader,
                                        nash=fifo_nash, n_scan=n_scan)
            fs_adv = leader_advantage(fs, profile, leader, nash=fs_nash,
                                      n_scan=n_scan)
            lead_table.add_row(label, leader, fifo_adv, fs_adv)
            if fifo_adv > 1e-4:
                fifo_gains = True
            if fs_adv > 1e-4:
                fs_flat = False

    # S^inf via iterated elimination on a rate grid, on the witness
    # game (FIFO's equilibrium component must survive elimination).
    grid_size = 13 if fast else 25
    profile = witness_profile()
    grids = [np.linspace(0.02, 0.6, grid_size) for _ in profile]
    elim_fs = iterated_elimination(fs, profile, grids)
    elim_fifo = iterated_elimination(fifo, profile, grids)
    spacing = float(grids[0][1] - grids[0][0])
    elim_table = Table(
        title="Iterated elimination of dominated rates (S^inf), witness "
              "game",
        headers=["discipline", "survivors per user", "span per user",
                 "collapsed to a point"])
    elim_table.add_row(
        "fifo", str([int(s.size) for s in elim_fifo.survivors]),
        str([round(float(x), 3) for x in elim_fifo.survivor_spans]),
        elim_fifo.collapsed)
    elim_table.add_row(
        "fair-share", str([int(s.size) for s in elim_fs.survivors]),
        str([round(float(x), 3) for x in elim_fs.survivor_spans]),
        elim_fs.collapsed)

    fs_tiny = bool(np.nanmax(elim_fs.survivor_spans) <= 3.0 * spacing)
    fifo_fat = bool(np.nanmax(elim_fifo.survivor_spans) > 4.0 * spacing)

    passed = fifo_gains and fs_flat and fs_tiny and fifo_fat
    return ExperimentReport(
        experiment_id=EXPERIMENT_ID, claim=CLAIM, passed=passed,
        tables=[lead_table, elim_table],
        summary={
            "fifo_leader_gains": fifo_gains,
            "fs_leader_advantage_zero": fs_flat,
            "fs_survivor_span": float(np.nanmax(elim_fs.survivor_spans)),
            "fifo_survivor_span": float(
                np.nanmax(elim_fifo.survivor_spans)),
        },
        notes=["S^inf computed exactly on a finite rate grid; FIFO's "
               "surviving set must cover its equilibrium component"])
