"""The adaptive-precision statistics layer: t quantiles and controls.

Covers the exact Student-t machinery (no scipy), the linear
control-variate regression, and the applicability gates that decide
which analytically-known controls a given simulation may use.
"""

import math

import numpy as np
import pytest

from repro.numerics.rng import default_rng
from repro.sim.stats import (
    MIN_CV_BATCHES,
    ControlSpec,
    ControlVariateSummary,
    control_specs_for,
    control_variate_adjust,
    normal_quantile,
    t_cdf,
    t_quantile,
)


class TestStudentT:
    def test_known_critical_values(self):
        # Classic table values for two-sided 95%.
        assert t_quantile(0.95, 2) == pytest.approx(4.3027, abs=1e-4)
        assert t_quantile(0.95, 4) == pytest.approx(2.7764, abs=1e-4)
        assert t_quantile(0.95, 19) == pytest.approx(2.0930, abs=1e-4)
        assert t_quantile(0.99, 5) == pytest.approx(4.0321, abs=1e-4)

    def test_converges_to_normal(self):
        assert t_quantile(0.95, 2e6) == pytest.approx(
            normal_quantile(0.975), abs=1e-6)
        assert normal_quantile(0.975) == pytest.approx(1.959964,
                                                       abs=1e-6)

    def test_heavier_tail_at_small_dof(self):
        quantiles = [t_quantile(0.95, dof) for dof in (1, 2, 5, 30)]
        assert quantiles == sorted(quantiles, reverse=True)
        assert quantiles[0] > 12.0  # dof=1 (Cauchy) is ~12.71

    def test_cdf_symmetry_and_limits(self):
        assert t_cdf(0.0, 7) == pytest.approx(0.5)
        assert t_cdf(math.inf, 7) == 1.0
        assert t_cdf(-math.inf, 7) == 0.0
        assert t_cdf(1.5, 7) + t_cdf(-1.5, 7) == pytest.approx(1.0)

    def test_quantile_inverts_cdf(self):
        for dof in (2, 4, 11):
            t = t_quantile(0.95, dof)
            assert t_cdf(t, dof) == pytest.approx(0.975, abs=1e-10)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            t_quantile(0.0, 5)
        with pytest.raises(ValueError):
            t_quantile(1.0, 5)
        with pytest.raises(ValueError):
            t_quantile(0.95, 0.0)
        with pytest.raises(ValueError):
            t_cdf(1.0, -2.0)
        with pytest.raises(ValueError):
            normal_quantile(1.0)


def _correlated_batches(n=40, n_users=2, seed=7):
    """Batches whose noise is mostly explained by a known control."""
    rng = default_rng(seed)
    control = rng.normal(10.0, 2.0, size=n)
    truth = np.array([1.0, 3.0])
    noise = rng.normal(0.0, 0.05, size=(n, n_users))
    per_batch = truth[None, :] + 0.5 * (control - 10.0)[None].T + noise
    spec = ControlSpec(name="ctrl", values=control, mean=10.0)
    return per_batch, spec, truth


class TestControlVariateAdjust:
    def test_variance_reduction_and_consistency(self):
        per_batch, spec, truth = _correlated_batches()
        adjusted = control_variate_adjust(per_batch, [spec])
        raw = control_variate_adjust(per_batch, [])
        assert adjusted.applied and not raw.applied
        assert adjusted.n_controls == 1
        assert adjusted.control_names == ("ctrl",)
        # The control explains most of the batch noise.
        assert np.all(adjusted.variance_ratio < 0.05)
        assert np.all(adjusted.half_widths < 0.3 * raw.half_widths)
        assert adjusted.means == pytest.approx(truth, abs=0.05)
        assert adjusted.events_equivalent_factor > 20.0

    def test_degenerate_control_dropped(self):
        per_batch, _spec, _truth = _correlated_batches()
        constant = ControlSpec(name="const",
                               values=np.full(per_batch.shape[0], 5.0),
                               mean=5.0)
        summary = control_variate_adjust(per_batch, [constant])
        assert not summary.applied
        assert summary.n_controls == 0

    def test_too_few_batches_falls_back_to_raw(self):
        per_batch, spec, _ = _correlated_batches(n=MIN_CV_BATCHES - 1)
        short = ControlSpec(name=spec.name,
                            values=spec.values[:MIN_CV_BATCHES - 1],
                            mean=spec.mean)
        summary = control_variate_adjust(per_batch, [short])
        assert not summary.applied
        # Raw fallback still reports Student-t half-widths.
        n = per_batch.shape[0]
        expected = (t_quantile(0.95, n - 1)
                    * per_batch.std(axis=0, ddof=1) / math.sqrt(n))
        assert summary.half_widths == pytest.approx(expected)

    def test_singular_control_matrix_falls_back(self):
        per_batch, spec, _ = _correlated_batches()
        twin = ControlSpec(name="twin", values=spec.values.copy(),
                           mean=spec.mean)
        summary = control_variate_adjust(per_batch, [spec, twin])
        assert isinstance(summary, ControlVariateSummary)
        # Either the solver degraded gracefully or numpy solved the
        # near-singular system; the estimate must stay finite.
        assert np.all(np.isfinite(summary.means))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            control_variate_adjust(np.zeros(5), [])

    def test_single_batch_raw_halfwidth_is_nan(self):
        summary = control_variate_adjust(np.zeros((1, 3)), [])
        assert not summary.applied
        assert np.all(np.isnan(summary.half_widths))


class TestControlSpecsFor:
    RATES = np.array([0.1, 0.2, 0.3])

    def _specs(self, **overrides):
        n, users = 20, self.RATES.size
        defaults = dict(
            per_batch=np.ones((n, users)),
            per_batch_arrivals=np.ones((n, users)),
            quota=500.0,
            rates=self.RATES,
            service_rate=1.0,
            arrival_process="poisson",
            service_process="exponential",
            sized=False,
            lossless=True)
        defaults.update(overrides)
        return control_specs_for(**defaults)

    def test_full_applicability(self):
        specs = self._specs()
        names = [s.name for s in specs]
        assert names == ["arrivals[0]", "arrivals[1]", "arrivals[2]",
                         "total-queue-law"]
        # Arrival-count means are r_i * quota.
        assert specs[0].mean == pytest.approx(0.1 * 500.0)
        assert specs[2].mean == pytest.approx(0.3 * 500.0)
        # The feasibility law: sum c_i = rho / (1 - rho) at rho = 0.6.
        assert specs[3].mean == pytest.approx(0.6 / 0.4)

    def test_non_poisson_disables_everything(self):
        assert self._specs(arrival_process="deterministic") == []
        assert self._specs(arrival_process="hyperexponential") == []

    def test_losses_disable_everything(self):
        # The tracker counts admitted packets: under drops the counts
        # are a thinned process with unknown mean.
        assert self._specs(lossless=False) == []

    def test_sized_policy_disables_size_blind_controls(self):
        # Sized mode couples batch boundaries to realized sizes: the
        # arrival-count regressors carry ~no correlation and only burn
        # degrees of freedom (the BENCH fair-queueing regression), and
        # the total-queue conservation argument breaks.  Without the
        # size channel (results pickled before it existed) sized cells
        # get no controls at all.
        assert self._specs(sized=True) == []

    def test_sized_regresses_on_arrived_work(self):
        specs = self._specs(sized=True,
                            per_batch_sizes=np.ones((20, 3)))
        names = [s.name for s in specs]
        assert names == ["arrived-work[0]", "arrived-work[1]",
                         "arrived-work[2]"]
        # Compound-Poisson batch mean: r_i * quota * E[size].
        assert specs[0].mean == pytest.approx(0.1 * 500.0 / 1.0)
        specs_mu2 = self._specs(sized=True, service_rate=2.0,
                                per_batch_sizes=np.ones((20, 3)))
        assert specs_mu2[2].mean == pytest.approx(0.3 * 500.0 / 2.0)

    def test_sized_work_shape_mismatch_disables_everything(self):
        assert self._specs(sized=True,
                           per_batch_sizes=np.ones((20, 2))) == []

    def test_memoryless_cells_ignore_the_size_channel(self):
        # The sizes matrix is all-zero in memoryless mode; it must not
        # leak into the regression even when present.
        names = [s.name for s in self._specs(
            per_batch_sizes=np.zeros((20, 3)))]
        assert names == ["arrivals[0]", "arrivals[1]", "arrivals[2]",
                         "total-queue-law"]

    def test_non_exponential_service_keeps_arrival_counts_only(self):
        names = [s.name
                 for s in self._specs(service_process="deterministic")]
        assert "total-queue-law" not in names
        assert len(names) == 3

    def test_unstable_load_drops_the_total_queue_law(self):
        names = [s.name for s in self._specs(
            rates=np.array([0.5, 0.7, 0.3]))]
        assert "total-queue-law" not in names

    def test_missing_arrival_counts_keep_the_law(self):
        names = [s.name for s in self._specs(per_batch_arrivals=None)]
        assert names == ["total-queue-law"]

    def test_zero_quota_disables_everything(self):
        assert self._specs(quota=0.0) == []
