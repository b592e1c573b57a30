import math
import statistics

import numpy as np
import pytest

import scalefit as sf
from scalefit.errors import DataError

from conftest import AR32, TRUE_ALPHA, TRUE_LOG_C, ar32_synth


class TestNoiseless:
    def test_points_lie_exactly_on_law(self):
        runset, truth = ar32_synth(1, sigma_fin=0.0)
        for record in runset.records:
            assert record.value == truth.value_at(record.scale.params)

    def test_fit_recovers_truth(self):
        runset, _ = ar32_synth(2, sigma_fin=0.0)
        fit = sf.fit_line(runset.points())
        assert fit.alpha == pytest.approx(TRUE_ALPHA, abs=1e-9)
        assert fit.beta == pytest.approx(TRUE_LOG_C, abs=1e-9)
        assert fit.r_squared >= 1 - 1e-12


class TestDeterminism:
    def test_same_seed_same_records(self):
        a, truth_a = ar32_synth(42)
        b, truth_b = ar32_synth(42)
        assert a == b
        assert truth_a == truth_b

    def test_different_seed_differs(self):
        a, _ = ar32_synth(42)
        b, _ = ar32_synth(43)
        assert a != b

    def test_scale_substreams_are_order_independent(self):
        # a prefix of the ladder sees exactly the same draws
        full, truth_full = ar32_synth(9)
        prefix, truth_prefix = ar32_synth(9, scales=AR32[:3])
        assert truth_prefix.scale_offsets == truth_full.scale_offsets[:3]
        small_params = {s.params for s in AR32[:3]}
        assert prefix.records == tuple(
            r for r in full.records if r.scale.params in small_params
        )


class TestVarianceDecomposition:
    def test_zero_finetune_noise_collapses_within_scale(self):
        runset, _ = ar32_synth(3, sigma_pre=0.05, sigma_fin=0.0)
        for k in range(len(runset.scales)):
            values = set(runset.values[runset.code == k].tolist())
            assert len(values) == 1

    def test_scale_means_converge_to_line(self):
        sigma = 0.02
        t_runs = 10_000
        runset, truth = ar32_synth(
            4, sigma_fin=sigma, seeds_per_scale=t_runs, scales=AR32[:3]
        )
        tol = 3 * sigma / math.sqrt(t_runs)
        for k, scale in enumerate(runset.scales):
            mean_log = statistics.fmean(
                math.log(v) for v in runset.values[runset.code == k].tolist()
            )
            expected = TRUE_LOG_C + TRUE_ALPHA * math.log(scale.params)
            assert abs(mean_log - expected) <= tol


class TestUniformNoise:
    def test_bounded_support_and_matching_scale(self):
        sigma = 0.05
        runset, truth = ar32_synth(
            5, sigma_fin=sigma, seeds_per_scale=2000, scales=AR32[:1], noise="uniform"
        )
        logs = np.log([r.value for r in runset.records])
        expected = TRUE_LOG_C + TRUE_ALPHA * math.log(AR32[0].params)
        deviations = logs - expected
        assert np.max(np.abs(deviations)) <= math.sqrt(3) * sigma + 1e-12
        assert np.std(deviations) == pytest.approx(sigma, rel=0.1)

    def test_single_trial_alpha_recovery(self):
        runset, _ = ar32_synth(6, noise="uniform")
        fit = sf.fit_line(runset.points())
        assert 0.07 <= fit.alpha <= 0.09


class TestValidation:
    def test_empty_scales_rejected(self):
        with pytest.raises(DataError):
            sf.SynthSpec(true_alpha=0.1, true_log_c=0.0, scales=(), seeds_per_scale=1)

    def test_bad_noise_model_rejected(self):
        with pytest.raises(DataError):
            sf.SynthSpec(
                true_alpha=0.1,
                true_log_c=0.0,
                scales=tuple(AR32),
                seeds_per_scale=1,
                noise="cauchy",
            )

    def test_direction_is_stored(self):
        runset, _ = ar32_synth(7, direction="maximize")
        assert runset.direction == "maximize"


def test_noisy_recovery_rate(sim_noisy_recovery):
    assert sim_noisy_recovery["pass_rate"] >= 0.95
