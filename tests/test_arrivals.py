"""Tests for arrival-process samplers."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.numerics import default_rng
from repro.sim.arrivals import (
    DEFAULT_BLOCK_SIZE,
    PROCESS_CV,
    VariateStream,
    interarrival_sampler,
)
from repro.sim.runner import SimulationConfig, simulate


@pytest.fixture
def rng():
    return default_rng(12)


class TestSamplers:
    @pytest.mark.parametrize("process", sorted(PROCESS_CV))
    def test_mean_matches_rate(self, process, rng):
        sampler = interarrival_sampler(process, rate=2.0, rng=rng)
        samples = np.array([sampler() for _ in range(20000)])
        assert samples.mean() == pytest.approx(0.5, rel=0.05)

    @pytest.mark.parametrize("process,cv", sorted(PROCESS_CV.items()))
    def test_cv_matches_spec(self, process, cv, rng):
        sampler = interarrival_sampler(process, rate=1.0, rng=rng)
        samples = np.array([sampler() for _ in range(40000)])
        measured = samples.std() / samples.mean()
        assert measured == pytest.approx(cv, abs=0.08)

    def test_samples_positive(self, rng):
        for process in PROCESS_CV:
            sampler = interarrival_sampler(process, rate=3.0, rng=rng)
            assert all(sampler() > 0 for _ in range(100))

    def test_validation(self, rng):
        with pytest.raises(SimulationError):
            interarrival_sampler("poisson", rate=0.0, rng=rng)
        with pytest.raises(SimulationError):
            interarrival_sampler("weibull", rate=1.0, rng=rng)


class TestSimulationWithProcesses:
    def test_throughput_independent_of_process(self):
        for process in PROCESS_CV:
            result = simulate(SimulationConfig(
                rates=[0.3], policy="fifo", horizon=20000.0,
                warmup=1000.0, seed=4, arrival_process=process))
            assert result.throughputs[0] == pytest.approx(0.3, rel=0.08)

    def test_queueing_orders_by_burstiness(self):
        totals = {}
        for process in PROCESS_CV:
            result = simulate(SimulationConfig(
                rates=[0.35, 0.35], policy="fifo", horizon=30000.0,
                warmup=1500.0, seed=5, arrival_process=process))
            totals[process] = result.total_mean_queue
        assert (totals["deterministic"] < totals["poisson"]
                < totals["hyperexponential"])

    def test_deterministic_d_m_1_below_mm1(self):
        # D/M/1 queues strictly less than M/M/1 at the same load.
        result = simulate(SimulationConfig(
            rates=[0.6], policy="fifo", horizon=30000.0, warmup=1500.0,
            seed=6, arrival_process="deterministic"))
        assert result.total_mean_queue < 1.5    # M/M/1 value


class TestServiceProcesses:
    """M/G/1 validation: the DES against Pollaczek-Khinchine."""

    def test_md1_total_queue(self):
        from repro.queueing.service_curves import MG1Curve

        result = simulate(SimulationConfig(
            rates=[0.3, 0.3], policy="fifo", horizon=60000.0,
            warmup=3000.0, seed=3, service_process="deterministic"))
        assert result.total_mean_queue == pytest.approx(
            MG1Curve(cv=0.0).value(0.6), rel=0.1)

    def test_h2_service_total_queue(self):
        from repro.queueing.service_curves import MG1Curve

        result = simulate(SimulationConfig(
            rates=[0.3, 0.3], policy="fifo", horizon=120000.0,
            warmup=6000.0, seed=11,
            service_process="hyperexponential"))
        assert result.total_mean_queue == pytest.approx(
            MG1Curve(cv=2.0).value(0.6), rel=0.15)

    def test_exponential_service_unchanged(self):
        a = simulate(SimulationConfig(
            rates=[0.4], policy="fifo", horizon=20000.0, warmup=1000.0,
            seed=2))
        b = simulate(SimulationConfig(
            rates=[0.4], policy="fifo", horizon=20000.0, warmup=1000.0,
            seed=2, service_process="exponential"))
        assert a.total_mean_queue == b.total_mean_queue

    def test_preemptive_policy_rejected(self):
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(
                rates=[0.2, 0.2], policy="ps", horizon=1000.0,
                warmup=50.0, service_process="deterministic"))
        with pytest.raises(SimulationError):
            simulate(SimulationConfig(
                rates=[0.2, 0.2], policy="fair-share", horizon=1000.0,
                warmup=50.0, service_process="deterministic"))

    def test_nonpreemptive_policies_accepted(self):
        for policy in ("hol", "round-robin", "fair-queueing"):
            result = simulate(SimulationConfig(
                rates=[0.2, 0.2], policy=policy, horizon=3000.0,
                warmup=150.0, seed=4,
                service_process="deterministic"))
            assert result.departures > 500


class TestVariateStream:
    """The batched variate source honours its draw-order contract."""

    def test_exponential_matches_direct_draws(self):
        stream = VariateStream("poisson", rate=2.0, rng=default_rng(7))
        reference = default_rng(7).exponential(0.5, 200)
        assert np.array_equal(stream.take(200), reference)

    @pytest.mark.parametrize("block_size", [1, 7, 64, DEFAULT_BLOCK_SIZE])
    def test_exponential_block_size_invariant(self, block_size):
        stream = VariateStream("poisson", rate=1.5, rng=default_rng(11),
                               block_size=block_size)
        reference = VariateStream("poisson", rate=1.5,
                                  rng=default_rng(11), block_size=3)
        assert np.array_equal(stream.take(150), reference.take(150))

    def test_exponential_alias_for_service_streams(self):
        stream = VariateStream("exponential", rate=2.0,
                               rng=default_rng(7))
        assert stream.process == "poisson"
        assert np.array_equal(stream.take(50),
                              default_rng(7).exponential(0.5, 50))

    def test_deterministic_consumes_no_randomness(self):
        generator = default_rng(3)
        stream = VariateStream("deterministic", rate=4.0, rng=generator,
                               block_size=8)
        draws = stream.take(100)
        # 1/4 is exact in binary; the gap must be it, not near it.
        assert np.all(draws == 0.25)
        # The stream never touched its generator: it still agrees with
        # a fresh generator from the same seed (bit-exact on purpose).
        assert generator.random() == default_rng(3).random()

    def test_hyper_default_block_golden(self):
        """Hyperexponential draws follow the documented block recipe."""
        stream = VariateStream("hyperexponential", rate=1.0,
                               rng=default_rng(21))
        reference_rng = default_rng(21)
        n = DEFAULT_BLOCK_SIZE
        uniforms = reference_rng.random(n)
        exponentials = reference_rng.standard_exponential(n)
        p = 0.5 * (1.0 + np.sqrt(3.0 / 5.0))     # balanced fit, cv 2
        scale = np.where(uniforms < p, 2.0 * p, 2.0 * (1.0 - p))
        assert np.array_equal(stream.take(n), exponentials / scale)

    def test_hyper_statistics(self):
        stream = VariateStream("hyperexponential", rate=2.0,
                               rng=default_rng(5))
        draws = stream.take(60000)
        assert draws.mean() == pytest.approx(0.5, rel=0.05)
        assert draws.std() / draws.mean() == pytest.approx(2.0,
                                                           abs=0.08)

    def test_refill_crosses_blocks(self):
        stream = VariateStream("poisson", rate=1.0, rng=default_rng(9),
                               block_size=4)
        assert len(stream.take(11)) == 11
        # 3 blocks of 4 were drawn; the 12th draw is pre-buffered.
        assert stream.draw() > 0.0

    def test_validation(self):
        with pytest.raises(SimulationError):
            VariateStream("poisson", rate=0.0, rng=default_rng(0))
        with pytest.raises(SimulationError):
            VariateStream("weibull", rate=1.0, rng=default_rng(0))
        with pytest.raises(SimulationError):
            VariateStream("poisson", rate=1.0, rng=default_rng(0),
                          block_size=0)
        stream = VariateStream("poisson", rate=1.0, rng=default_rng(0))
        with pytest.raises(SimulationError):
            stream.take(-1)
