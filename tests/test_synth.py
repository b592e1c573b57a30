import math
import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.errors import DataError
from scalefit.rng import substream

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

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(seeds_per_scale=0), "^seeds_per_scale must be >= 1, got 0$"),
            (dict(sigma_fin=-0.1), "^noise levels must be nonnegative$"),
            (dict(direction="up"), "^unknown direction token 'up'$"),
        ],
    )
    def test_bad_field_rejected(self, change, message):
        spec = dict(true_alpha=0.1, true_log_c=0.0, scales=tuple(AR32), seeds_per_scale=1)
        with pytest.raises(DataError, match=message):
            sf.SynthSpec(**{**spec, **change})

    def test_direction_is_stored(self):
        runset, _ = ar32_synth(7, direction="maximize")
        assert runset.direction == "maximize"


def test_noisy_recovery_rate(sim_noisy_recovery):
    assert sim_noisy_recovery["pass_rate"] >= 0.95


def draws_per_record(rng, sigma, n, noise):
    if noise == "uniform":
        return rng.uniform(-math.sqrt(3.0) * sigma, math.sqrt(3.0) * sigma, size=n)
    return rng.normal(0.0, sigma, size=n) if sigma > 0 else [0.0] * n


def generate_per_record(spec):
    """``generate`` as one RunRecord per draw, read back into a run set:
    the construction the columnar one replaced, kept as its reference."""
    records, offsets = [], []
    for i, scale in enumerate(spec.scales):
        rng = substream(spec.rng_seed, i)
        u = float(draws_per_record(rng, spec.sigma_pre, 1, spec.noise)[0])
        eps = draws_per_record(rng, spec.sigma_fin, spec.seeds_per_scale, spec.noise)
        offsets.append(u)
        base = spec.true_log_c + spec.true_alpha * math.log(scale.params) + u
        for j in range(spec.seeds_per_scale):
            try:
                value = math.exp(base + float(eps[j]))
            except OverflowError:
                raise DataError(f"synthetic value at params={scale.params} overflows float64") from None
            records.append(
                sf.RunRecord(scale, spec.task, spec.family, 0, j, spec.metric, value, spec.direction)
            )
    truth = sf.GroundTruth(alpha=spec.true_alpha, log_c=spec.true_log_c, scale_offsets=tuple(offsets))
    return sf.RunSet.from_records(records), truth


def outcome(make, spec):
    try:
        return make(spec)
    except DataError as exc:
        return str(exc)


SYNTH_SCALES = (*AR32[:4], sf.ScaleSpec.from_params(999), sf.ScaleSpec.from_params(10**30))
synth_specs = st.builds(
    sf.SynthSpec,
    true_alpha=st.floats(-2.0, 2.0) | st.sampled_from([0.0, 80.0, -80.0, 1e308]),
    true_log_c=st.floats(-10.0, 10.0) | st.sampled_from([-800.0, 700.0]),
    scales=st.lists(st.sampled_from(SYNTH_SCALES), min_size=1, max_size=6).map(tuple),
    seeds_per_scale=st.integers(1, 12),
    sigma_pre=st.just(0.0) | st.floats(0.0, 1.0),
    sigma_fin=st.just(0.0) | st.floats(0.0, 1.0),
    rng_seed=st.integers(0, 2**64 - 1),
    direction=st.sampled_from(["minimize", "maximize"]),
    noise=st.sampled_from(["normal", "uniform"]),
)


def ladder_spec(**kwargs):
    base = dict(true_alpha=0.08, true_log_c=3.0, scales=AR32[:3], seeds_per_scale=4)
    return sf.SynthSpec(**{**base, **kwargs})


# One scale whose exponents are 0 +- 400: some of its rows overflow, some underflow.
WILD = dict(true_alpha=0.0, true_log_c=0.0, scales=AR32[:1], seeds_per_scale=6, sigma_fin=400.0)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=synth_specs)
@example(spec=ladder_spec(scales=(AR32[1], AR32[0], AR32[1], AR32[0]), sigma_pre=0.1, sigma_fin=0.2))  # scales merge
@example(spec=ladder_spec(noise="uniform"))  # zero sigmas still draw uniform variates
@example(spec=ladder_spec(true_alpha=80.0))  # the first scale's values overflow
@example(spec=ladder_spec(**WILD, rng_seed=68))  # row 3 overflows before row 5 underflows
@example(spec=ladder_spec(**WILD, rng_seed=70))  # row 3 underflows before rows 5 and 6 overflow
@example(spec=ladder_spec(true_log_c=-800.0))  # values underflow to 0
@example(spec=ladder_spec(true_alpha=1e308))  # exponents overflow to inf
def test_generate_matches_a_per_record_construction(spec):
    got, want = outcome(sf.generate, spec), outcome(generate_per_record, spec)
    if isinstance(want, str):
        assert got == want
        return
    (runset, truth), (reference, reference_truth) = got, want
    assert "records" not in vars(runset)
    assert runset == reference and truth == reference_truth
    for name in ("code", "values", "seeds", "tokens", "label", "sizes", "params", "layers"):
        a, b = getattr(runset, name), getattr(reference, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), name
    assert runset.records == reference.records
