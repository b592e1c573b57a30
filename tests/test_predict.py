import math

import pytest

import scalefit as sf
from scalefit.errors import DataError, DegenerateDataError

from conftest import TARGET, ar32_synth


class TestMeanRelativeError:
    def test_identity_is_zero(self):
        assert sf.mean_relative_error([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_hand_arithmetic(self):
        # (1/2) * (2/80 + 1.8/90)
        assert sf.mean_relative_error([80, 90], [82, 88.2]) == pytest.approx(0.0225, abs=1e-12)

    def test_quarter_point_boundary(self):
        assert sf.mean_relative_error([100], [97.5]) == pytest.approx(0.025, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            sf.mean_relative_error([1, 2], [1])

    def test_zero_actual_rejected(self):
        with pytest.raises(DataError, match="positive"):
            sf.mean_relative_error([0.0], [1.0])

    def test_rescaling_invariance(self):
        actual = [80.0, 90.0, 95.0]
        predicted = [82.0, 88.2, 94.1]
        base = sf.mean_relative_error(actual, predicted)
        for c in (0.5, 4.0, 100.0):
            scaled = sf.mean_relative_error([a * c for a in actual], [p * c for p in predicted])
            assert scaled == pytest.approx(base, rel=1e-12)


class TestRelativeError:
    def test_zero(self):
        assert sf.relative_error(90.0, 90.0) == 0.0

    def test_over_optimistic_is_negative(self):
        assert sf.relative_error(90.0, 91.8) == pytest.approx(-0.02, abs=1e-12)

    def test_undershoot_is_positive(self):
        assert sf.relative_error(2.0, 1.9) == pytest.approx(0.05, abs=1e-12)

    def test_sign_convention_exact(self):
        rng = sf.substream(31, 0)
        for _ in range(50):
            actual = float(rng.uniform(0.1, 100))
            predicted = float(rng.uniform(0.1, 100))
            re = sf.relative_error(actual, predicted)
            assert (re < 0) == (predicted > actual)

    def test_zero_actual_rejected(self):
        with pytest.raises(DataError):
            sf.relative_error(0.0, 1.0)


class TestDerivedErrors:
    """Predictions derive their relative errors and the report its MRE."""

    def test_target_derives_relative_error(self):
        t = sf.TargetPrediction(x=1e6, predicted=91.8, actual=90.0)
        assert t.relative_error == sf.relative_error(90.0, 91.8)
        assert sf.TargetPrediction(x=1e6, predicted=91.8).relative_error is None

    def test_target_rejects_bad_actual(self):
        with pytest.raises(DataError, match="actual value must be positive"):
            sf.TargetPrediction(x=1e6, predicted=1.0, actual=0.0)

    def test_report_derives_mre(self):
        fit = sf.fit_line([(1.0, 2.0), (2.0, 4.0)])
        targets = (
            sf.TargetPrediction(x=3.0, predicted=82.0, actual=80.0),
            sf.TargetPrediction(x=4.0, predicted=88.2, actual=90.0),
        )
        report = sf.PredictionReport(fit=fit, targets=targets)
        assert report.mre == sf.mean_relative_error([80.0, 90.0], [82.0, 88.2])

    def test_report_mre_none_when_an_actual_is_missing(self):
        fit = sf.fit_line([(1.0, 2.0), (2.0, 4.0)])
        targets = (
            sf.TargetPrediction(x=3.0, predicted=82.0, actual=80.0),
            sf.TargetPrediction(x=4.0, predicted=88.2),
        )
        assert sf.PredictionReport(fit=fit, targets=targets).mre is None
        assert sf.PredictionReport(fit=fit, targets=targets[1:]).mre is None

    def test_derived_fields_take_no_arguments(self):
        with pytest.raises(TypeError):
            sf.TargetPrediction(x=1.0, predicted=1.0, actual=1.0, relative_error=0.5)
        with pytest.raises(TypeError):
            sf.PredictionReport(fit=sf.fit_line([(1.0, 2.0), (2.0, 4.0)]), targets=(), mre=0.0)


class TestHoldout:
    def test_noiseless_extrapolation_is_exact(self):
        runset, _ = ar32_synth(100, sigma_fin=0.0)
        report = sf.holdout_eval(runset, (1, 6), (7, 8))
        assert report.mre <= 1e-9
        assert report.n_targets == 2

    def test_any_disjoint_split_is_exact_on_law(self):
        runset, _ = ar32_synth(101, sigma_fin=0.0)
        for train, test in [((1, 4), (5, 8)), ((5, 8), (1, 4)), ((2, 3), (6, 6))]:
            assert sf.holdout_eval(runset, train, test).mre <= 1e-9

    def test_overlapping_ranges_rejected(self):
        runset, _ = ar32_synth(102)
        with pytest.raises(DataError, match="overlap"):
            sf.holdout_eval(runset, (1, 6), (6, 8))

    def test_single_scale_train_rejected(self):
        runset, _ = ar32_synth(103)
        with pytest.raises(DegenerateDataError):
            sf.holdout_eval(runset, (1, 1), (7, 8))

    @pytest.mark.parametrize(
        "train, test, empty",
        [((1, 6), (9, 12), "test"), ((20, 30), (1, 6), "train")],
        ids=["test", "train"],
    )
    def test_empty_test_rejected(self, train, test, empty):
        runset, _ = ar32_synth(104)
        with pytest.raises(DataError, match=f"{empty} layer range .* matches no records"):
            sf.holdout_eval(runset, train, test)

    def test_actual_is_per_scale_mean(self):
        runset, _ = ar32_synth(105)
        report = sf.holdout_eval(runset, (1, 6), (7, 8))
        for target in report.targets:
            values = [r.value for r in runset.records if r.scale.params == target.x]
            assert target.actual == pytest.approx(sum(values) / len(values), rel=1e-12)

    def test_mre_rate(self, sim_holdout):
        assert sim_holdout["pass_rate"] >= 0.90


class TestExtrapolate:
    def test_target_equal_to_largest_scale_noiseless(self):
        runset, truth = ar32_synth(110, sigma_fin=0.0)
        largest = runset.scales[-1]
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=7)
        report = sf.extrapolate(runset, largest, cfg)
        assert report.targets[0].predicted == pytest.approx(
            truth.value_at(largest.params), rel=1e-9
        )

    def test_re_sign_when_actual_below_prediction(self):
        runset, _ = ar32_synth(111, sigma_fin=0.0)
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=8)
        report = sf.extrapolate(runset, TARGET, cfg, actual=1.0)
        assert report.targets[0].predicted > 1.0
        assert report.targets[0].relative_error < 0
        assert report.mre == pytest.approx(abs(report.targets[0].relative_error), rel=1e-12)

    def test_band_attached_at_target(self):
        runset, _ = ar32_synth(112)
        cfg = sf.BootstrapConfig(n_replicates=120, rng_seed=9)
        report = sf.extrapolate(runset, TARGET, cfg)
        lo, hi = report.targets[0].band
        assert 0 < lo <= hi

    def test_band_is_interval_at_of_default_band(self):
        # extrapolate bands the target alone; flag_undertrained reads the same band
        runset, truth = ar32_synth(113)
        cfg = sf.BootstrapConfig(n_replicates=200, rng_seed=10)
        x = float(TARGET.params)
        expected = sf.bootstrap_band(runset, cfg).interval_at(x)
        assert sf.extrapolate(runset, TARGET, cfg).targets[0].band == expected
        assert sf.flag_undertrained(runset, TARGET, truth.value_at(x), cfg).band == expected

    def test_band_coverage_at_14x(self, sim_extrapolation_coverage):
        assert sim_extrapolation_coverage["coverage"] >= 0.85


class TestSelect:
    def two_families(self, seed_a=120, seed_b=121, log_c_b=None):
        log_c_a = math.log(85.0) - 0.08 * math.log(TARGET.params)
        if log_c_b is None:
            log_c_b = math.log(86.5) - 0.08 * math.log(TARGET.params)
        a, _ = ar32_synth(seed_a, direction="maximize", log_c=log_c_a, family="fam_a")
        b, _ = ar32_synth(seed_b, direction="maximize", log_c=log_c_b, family="fam_b")
        return a, b

    def test_identical_runsets_zero_gap(self):
        runset, _ = ar32_synth(122, direction="maximize")
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=11)
        sel = sf.select_model(runset, runset, TARGET, cfg)
        assert sel.predicted_gap == 0.0

    def test_antisymmetry(self):
        a, b = self.two_families()
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=12)
        fwd = sf.select_model(a, b, TARGET, cfg, actual_a=85.0, actual_b=86.5)
        rev = sf.select_model(b, a, TARGET, cfg, actual_a=86.5, actual_b=85.0)
        assert rev.predicted_gap == -fwd.predicted_gap
        assert rev.actual_gap == -fwd.actual_gap
        assert rev.sign_agreement == fwd.sign_agreement

    def test_gate_blocks_unreliable_family(self):
        a, b = self.two_families()
        # wreck family b: alternate far above/below any line
        wrecked = []
        for i, r in enumerate(b.records):
            factor = 3.0 if i % 2 == 0 else 1 / 3.0
            wrecked.append(
                sf.RunRecord(
                    scale=r.scale,
                    task=r.task,
                    family=r.family,
                    pretrain_seed=r.pretrain_seed,
                    finetune_seed=r.finetune_seed,
                    metric=r.metric,
                    value=r.value * factor,
                    direction=r.direction,
                )
            )
        b_bad = sf.RunSet.from_records(wrecked)
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=13)
        sel = sf.select_model(a, b_bad, TARGET, cfg, r2_threshold=0.95)
        assert sel.fit_b.r_squared < 0.95
        assert sel.gate_a and not sel.gate_b
        assert not sel.reliable

    def test_gate_monotone_in_threshold(self):
        a, b = self.two_families()
        cfg = sf.BootstrapConfig(n_replicates=50, rng_seed=14)
        gates = []
        for threshold in (0.5, 0.9, 0.99, 0.9999):
            sel = sf.select_model(a, b, TARGET, cfg, r2_threshold=threshold)
            gates.append(sel.gate_a and sel.gate_b)
        for earlier, later in zip(gates, gates[1:]):
            assert earlier or not later

    def test_metric_mismatch_names_both(self):
        a, _ = ar32_synth(123, metric="f1", direction="maximize")
        b, _ = ar32_synth(124, metric="accuracy", direction="maximize", family="other")
        cfg = sf.BootstrapConfig(n_replicates=20, rng_seed=15)
        with pytest.raises(DataError, match=r"'f1'.*'accuracy'"):
            sf.select_model(a, b, TARGET, cfg)

    def test_direction_mismatch_rejected(self):
        a, _ = ar32_synth(125, direction="maximize")
        b, _ = ar32_synth(126, direction="minimize", family="other")
        cfg = sf.BootstrapConfig(n_replicates=20, rng_seed=16)
        with pytest.raises(DataError, match="direction mismatch"):
            sf.select_model(a, b, TARGET, cfg)

    def test_sign_agreement_rate(self, sim_selection):
        assert sim_selection["gates_and_sign"] >= 0.90 * sim_selection["trials"]
