"""Sharded switch-graph goldens: placement-independent simulation.

The sharded simulator's contract is that worker placement is
unobservable: ``jobs=1``, ``jobs=2`` and ``jobs=4`` runs — and runs
resumed from a window-boundary snapshot under a *different* jobs
count — produce byte-identical per-switch measurements.  The tests
also pin the Jackson-network sanity check (FIFO tandem hops behave as
independent M/M/1 queues) and the conservative-synchronization
validation (``link_delay >= window``).
"""

import pickle

import numpy as np
import pytest

import repro.sim.kernels as kernels
from repro.exceptions import SimulationError
from repro.network.sharded import (
    SHARDED_POLICIES,
    ShardedResult,
    ShardedSimulation,
    ShardedState,
    ShardSwitchEngine,
    SwitchGraphConfig,
    simulate_sharded,
)


def graph_config(**overrides):
    """A 3-switch, 3-user graph where every switch both sources and
    relays traffic (the hardest case for handoff ordering)."""
    base = dict(rates=[0.3, 0.25, 0.2],
                routes=[(0, 1), (0, 2), (1, 2)],
                policies=["fifo", "fair-share", "fifo"],
                horizon=6000.0, warmup=400.0, seed=5,
                window=400.0, link_delay=400.0, batch_quota=250.0)
    base.update(overrides)
    return SwitchGraphConfig(**base)


def fingerprint(result):
    return (result.mean_queues.tobytes(),
            result.total_mean_queues.tobytes(),
            tuple(res.mean_queues.tobytes()
                  for res in result.per_switch),
            tuple(res.batch.per_batch.tobytes()
                  for res in result.per_switch),
            tuple(res.mean_delays.tobytes()
                  for res in result.per_switch),
            result.arrivals, result.events)


class TestPlacementIndependence:
    def test_jobs_2_and_4_match_serial(self):
        serial = simulate_sharded(graph_config(), jobs=1)
        for jobs in (2, 4):
            parallel = simulate_sharded(graph_config(), jobs=jobs)
            assert fingerprint(serial) == fingerprint(parallel)

    def test_scalar_fallback_matches_chunked(self, monkeypatch):
        chunked = simulate_sharded(graph_config(), jobs=1)
        monkeypatch.setattr(kernels, "load_kernels", lambda: None)
        scalar = simulate_sharded(graph_config(), jobs=1)
        assert fingerprint(chunked) == fingerprint(scalar)


class TestSnapshotResume:
    def test_mid_run_snapshot_resumes_under_other_jobs(self):
        straight = simulate_sharded(graph_config(), jobs=1)
        sim = ShardedSimulation(graph_config(), jobs=1)
        sim.run_windows(5)
        state = pickle.loads(pickle.dumps(sim.snapshot()))
        with ShardedSimulation.resume(state, graph_config(),
                                      jobs=2) as resumed:
            resumed.run_windows()
            assert fingerprint(straight) == fingerprint(
                resumed.result())

    def test_parallel_snapshot_resumes_serially(self):
        straight = simulate_sharded(graph_config(), jobs=1)
        with ShardedSimulation(graph_config(), jobs=2) as sim:
            sim.run_windows(9)
            state = pickle.loads(pickle.dumps(sim.snapshot()))
        resumed = ShardedSimulation.resume(state, graph_config(),
                                           jobs=1)
        resumed.run_windows()
        assert fingerprint(straight) == fingerprint(resumed.result())

    def test_snapshot_requires_batch_quota(self):
        sim = ShardedSimulation(graph_config(batch_quota=None),
                                jobs=1)
        sim.run_windows(2)
        with pytest.raises(SimulationError):
            sim.snapshot()

    def test_snapshot_preserves_event_counter(self):
        sim = ShardedSimulation(graph_config(), jobs=1)
        sim.run_windows()
        state = sim.snapshot()
        assert isinstance(state, ShardedState)
        resumed = ShardedSimulation.resume(state, graph_config())
        assert resumed.events == sim.events

    def test_serial_engines_are_shard_switch_engines(self):
        sim = ShardedSimulation(graph_config(), jobs=1)
        assert all(isinstance(engine, ShardSwitchEngine)
                   for engine in sim._engines.values())


class TestPhysics:
    def test_fifo_tandem_is_jackson(self):
        # Burke's theorem: both hops of a FIFO tandem at rho = 0.5
        # are M/M/1 with mean queue rho/(1-rho) = 1.
        config = SwitchGraphConfig(
            rates=[0.5], routes=[(0, 1)], policies=["fifo", "fifo"],
            horizon=40000.0, warmup=2000.0, seed=1,
            window=500.0, link_delay=500.0, batch_quota=1900.0)
        result = simulate_sharded(config)
        np.testing.assert_allclose(result.mean_queues.ravel(),
                                   [1.0, 1.0], rtol=0.1)

    def test_totals_sum_along_routes(self):
        result = simulate_sharded(graph_config())
        assert isinstance(result, ShardedResult)
        np.testing.assert_array_equal(result.total_mean_queues,
                                      result.mean_queues.sum(axis=0))

    def test_relayed_traffic_reaches_downstream_switches(self):
        result = simulate_sharded(graph_config())
        # User 0 sources at switch 0 and relays through switch 1.
        assert result.mean_queues[1, 0] > 0.0
        # Structural zero, not a computed float: user 2's route never
        # crosses switch 0, so its tracker column is never touched.
        assert result.mean_queues[0, 2] == 0.0

    def test_flow_conservation_per_hop(self):
        result = simulate_sharded(graph_config(horizon=20000.0))
        for alpha, res in enumerate(result.per_switch):
            members = result.members[alpha]
            rates = np.asarray(graph_config().rates)[members]
            np.testing.assert_allclose(res.throughputs, rates,
                                       rtol=0.15)


class TestValidation:
    def test_link_delay_below_window_rejected(self):
        with pytest.raises(SimulationError):
            ShardedSimulation(graph_config(link_delay=100.0))

    def test_unsupported_policy_rejected(self):
        assert "fq" not in SHARDED_POLICIES
        with pytest.raises(SimulationError):
            ShardedSimulation(graph_config(
                policies=["fifo", "fq", "fifo"]))

    def test_route_and_rate_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            ShardedSimulation(graph_config(rates=[0.3, 0.25]))

    def test_switch_without_routes_rejected(self):
        with pytest.raises(SimulationError):
            ShardedSimulation(graph_config(
                routes=[(0, 1), (0, 1), (0, 3)]))
