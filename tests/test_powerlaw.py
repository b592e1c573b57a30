import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.errors import DataError, DegenerateDataError

from conftest import AR32, ar32_synth


def noisy_fixture():
    # 8 AR-32 scales x 5 runs on ln(y) = 0.08 ln(x) + ln(20) + N(0, 0.01^2)
    rng = sf.substream(2024, 0)
    xs = np.repeat([s.params for s in AR32], 5).astype(float)
    eps = rng.normal(0.0, 0.01, xs.size)
    ys = np.exp(math.log(20) + 0.08 * np.log(xs) + eps)
    return list(zip(xs, ys))


class TestFitLine:
    def test_points_must_be_pairs(self):
        with pytest.raises(DataError, match=r"^points must be \(x, y\) pairs$"):
            sf.fit_line([(1, 2, 3), (4, 5, 6)])

    def test_points_must_be_finite(self):
        with pytest.raises(DataError, match="^points must be finite$"):
            sf.fit_line([(1, 2), (math.inf, 3)])

    def test_exact_power_law(self):
        fit = sf.fit_line([(1, 3), (2, 6), (4, 12)])
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(math.log(3), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 3

    def test_constant_y(self):
        fit = sf.fit_line([(1, 5.0), (2, 5.0), (3, 5.0)])
        assert fit.alpha == 0.0
        assert fit.beta == math.log(5.0)
        assert fit.ss_res == 0.0
        assert fit.r_squared == 1.0

    def test_noisy_recovery_against_polyfit(self):
        points = noisy_fixture()
        fit = sf.fit_line(points)
        # frozen from the independent least-squares oracle (np.polyfit)
        assert fit.alpha == pytest.approx(0.07867183311982906, abs=1e-10)
        assert 0.07 <= fit.alpha <= 0.09
        arr = np.asarray(points)
        alpha_pf, beta_pf = np.polyfit(np.log(arr[:, 0]), np.log(arr[:, 1]), 1)
        assert fit.alpha == pytest.approx(alpha_pf, abs=1e-10)
        assert fit.beta == pytest.approx(beta_pf, abs=1e-9)

    def test_needs_two_distinct_x(self):
        with pytest.raises(DegenerateDataError):
            sf.fit_line([(2, 1), (2, 3), (2, 9)])
        # distinct in float64, one logarithm
        with pytest.raises(DegenerateDataError, match="distinct x"):
            sf.fit_line([(0.001, 1.0), (0.0010000000000000002, 2.0)])

    def test_needs_positive_coordinates(self):
        with pytest.raises(DataError):
            sf.fit_line([(1, 1), (2, -3)])
        with pytest.raises(DataError):
            sf.fit_line([(0, 1), (2, 3)])

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            sf.fit_line([(1, 1)])


class TestRSquared:
    def test_perfect_fit(self):
        points = [(1, 3), (2, 6), (4, 12)]
        fit = sf.fit_line(points)
        assert sf.goodness_of_fit(points, fit, "log")[0] == pytest.approx(1.0, abs=1e-12)
        assert sf.goodness_of_fit(points, fit, "linear")[0] == pytest.approx(1.0, abs=1e-12)

    def test_three_point_frozen_values(self):
        e = math.e
        points = [(1.0, 1.0), (e, 2.0), (e * e, e * e)]
        fit = sf.fit_line(points)
        # hand OLS on (ln x, ln y) = (0,1,2) x (0, ln 2, 2)
        assert fit.alpha == pytest.approx(1.0, abs=1e-12)
        assert fit.beta == pytest.approx(-0.10228427314668487, abs=1e-12)
        r2_log = sf.goodness_of_fit(points, fit, "log")[0]
        r2_lin = sf.goodness_of_fit(points, fit, "linear")[0]
        assert r2_log == pytest.approx(0.9695688995413486, abs=1e-12)
        assert r2_lin == pytest.approx(0.9690235716881348, abs=1e-12)

    def test_mean_only_fit_scores_zero_in_log_space(self):
        points = [(1, 2), (10, 4), (100, 16)]
        v = np.log([y for _, y in points])
        forced = sf.FitResult(
            alpha=0.0, beta=float(v.mean()), r_squared=0.0, ss_res=0.0, ss_tot=0.0, n_points=3
        )
        assert sf.goodness_of_fit(points, forced, "log")[0] == pytest.approx(0.0, abs=1e-12)

    def test_undefined_when_constant_data_missed(self):
        points = [(1, 5.0), (2, 5.0), (4, 5.0)]
        off = sf.FitResult(
            alpha=0.0, beta=math.log(5.0) + 0.5, r_squared=0.0, ss_res=0.0, ss_tot=0.0, n_points=3
        )
        with pytest.raises(DegenerateDataError, match="undefined"):
            sf.goodness_of_fit(points, off, "log")

    def test_constant_data_hit_is_perfect_in_both_spaces(self):
        points = [(1, 5.0), (2, 5.0), (4, 5.0)]
        fit = sf.fit_line(points)
        assert sf.goodness_of_fit(points, fit, "log")[0] == 1.0
        assert sf.goodness_of_fit(points, fit, "linear")[0] == 1.0

    def test_unknown_space_rejected(self):
        points = [(1, 3), (2, 6)]
        with pytest.raises(DataError, match="residual space"):
            sf.goodness_of_fit(points, sf.fit_line(points), "cubic")

    def test_never_exceeds_one(self):
        rng = sf.substream(77, 0)
        for trial in range(20):
            x = rng.uniform(1, 100, 12)
            y = np.exp(rng.normal(0, 1, 12))
            points = list(zip(x, y))
            fit = sf.fit_line(points)
            assert fit.r_squared <= 1.0
            assert sf.goodness_of_fit(points, fit, "linear")[0] <= 1.0


class TestPredictAt:
    def test_arithmetic(self):
        fit = sf.FitResult(
            alpha=0.5, beta=math.log(2), r_squared=1, ss_res=0, ss_tot=0, n_points=2
        )
        assert sf.predict_at(fit, 100.0) == pytest.approx(20.0, abs=1e-12)

    def test_constant_law(self):
        fit = sf.FitResult(alpha=0.0, beta=1.7, r_squared=1, ss_res=0, ss_tot=0, n_points=2)
        for x in (0.5, 3.0, 1e9):
            assert sf.predict_at(fit, x) == pytest.approx(math.exp(1.7), rel=1e-12)

    def test_extrapolates_fitted_line(self):
        fit = sf.fit_line([(1, 3), (2, 6), (4, 12)])
        assert sf.predict_at(fit, 8.0) == pytest.approx(24.0, rel=1e-9)

    def test_self_consistency_in_log_space(self):
        points = noisy_fixture()
        fit = sf.fit_line(points)
        for x, _ in points[::5]:
            assert math.log(sf.predict_at(fit, x)) == pytest.approx(
                fit.alpha * math.log(x) + fit.beta, abs=1e-12
            )

    def test_rejects_nonpositive(self):
        fit = sf.fit_line([(1, 3), (2, 6)])
        with pytest.raises(DataError):
            sf.predict_at(fit, 0.0)

    def test_overflow_is_data_error_without_warning(self):
        fit = sf.FitResult(alpha=30.0, beta=3.0, r_squared=1, ss_res=0, ss_tot=0, n_points=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="overflows"):
                sf.predict_at(fit, 1e15)


class TestInvariances:
    def test_rescaling_x(self):
        points = noisy_fixture()
        base = sf.fit_line(points)
        c = 7.5
        moved = sf.fit_line([(x * c, y) for x, y in points])
        assert moved.alpha == pytest.approx(base.alpha, abs=1e-9)
        assert moved.beta == pytest.approx(base.beta - base.alpha * math.log(c), abs=1e-9)

    def test_rescaling_y(self):
        points = noisy_fixture()
        base = sf.fit_line(points)
        c = 0.125
        moved = sf.fit_line([(x, y * c) for x, y in points])
        assert moved.alpha == pytest.approx(base.alpha, abs=1e-9)
        assert moved.beta == pytest.approx(base.beta + math.log(c), abs=1e-9)

    def test_ols_optimality_under_perturbation(self):
        points = noisy_fixture()
        fit = sf.fit_line(points)
        arr = np.asarray(points)
        u, v = np.log(arr[:, 0]), np.log(arr[:, 1])

        def loss(a, b):
            r = v - (a * u + b)
            return float(r @ r)

        best = loss(fit.alpha, fit.beta)
        d = 1e-3
        offsets = [(d, 0), (-d, 0), (0, d), (0, -d), (d, d), (d, -d), (-d, d), (-d, -d)]
        for da, db in offsets:
            assert loss(fit.alpha + da, fit.beta + db) >= best - 1e-15


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 40), st.floats(-5.0, 5.0)), min_size=2, max_size=30),
    log_c=st.floats(-5.0, 5.0),
    log_k=st.floats(-5.0, 5.0),
)
def test_fit_equivariance(rows, log_c, log_k):
    # x = 2**i keeps distinct abscissas at least ln 2 apart in log space
    assume(len({i for i, _ in rows}) >= 2)
    points = [(2.0**i, math.exp(v)) for i, v in rows]
    base = sf.fit_line(points)
    c, k = math.exp(log_c), math.exp(log_k)
    scaled_y = sf.fit_line([(x, c * y) for x, y in points])
    assert scaled_y.alpha == pytest.approx(base.alpha, abs=1e-9)
    assert scaled_y.beta == pytest.approx(base.beta + math.log(c), abs=1e-9)
    scaled_x = sf.fit_line([(k * x, y) for x, y in points])
    assert scaled_x.alpha == pytest.approx(base.alpha, abs=1e-9)
    assert scaled_x.beta == pytest.approx(base.beta - base.alpha * math.log(k), abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(st.tuples(st.floats(1e-3, 1e6), st.floats(1e-3, 1e6)), min_size=2, max_size=30),
    constant=st.booleans(),
)
def test_fit_line_goodness_matches_goodness_of_fit(rows, constant):
    assume(np.unique(np.log([x for x, _ in rows])).size >= 2)  # fit_line's precondition
    points = [(x, rows[0][1] if constant else y) for x, y in rows]
    fit = sf.fit_line(points)
    assert (fit.r_squared, fit.ss_res, fit.ss_tot) == sf.goodness_of_fit(points, fit, "log")


class TestFitFiltered:
    def test_identity_filter_matches_fit_line(self):
        runset, _ = ar32_synth(5)
        filtered = sf.fit_runset(runset, min_layers=1)
        plain = sf.fit_line(runset.points())
        assert filtered.min_layers == 1
        assert dataclasses.replace(filtered, min_layers=None) == plain

    def test_dropping_offset_smallest_scale_improves_r2(self):
        scales = sf.scale_ladder(32, range(1, 6))
        records = []
        for scale in scales:
            law = math.exp(math.log(20) + 0.08 * math.log(scale.params))
            value = law * (0.5 if scale.layers == 1 else 1.0)
            records.append(
                sf.RunRecord(
                    scale=scale,
                    task="t",
                    family="f",
                    pretrain_seed=0,
                    finetune_seed=0,
                    metric="m",
                    value=value,
                    direction="minimize",
                )
            )
        runset = sf.RunSet.from_records(records)
        full = sf.fit_line(runset.points())
        deep = sf.fit_runset(runset, min_layers=2)
        assert deep.r_squared > full.r_squared

    def test_filter_beyond_max_depth_errors(self):
        runset, _ = ar32_synth(6)
        with pytest.raises(DegenerateDataError, match="min_layers=99"):
            sf.fit_runset(runset, min_layers=99)

    def test_requires_layer_info(self):
        records = [
            sf.RunRecord(
                scale=sf.ScaleSpec.from_params(p),
                task="t",
                family="f",
                pretrain_seed=0,
                finetune_seed=0,
                metric="m",
                value=float(p),
                direction="minimize",
            )
            for p in (10, 20, 40)
        ]
        runset = sf.RunSet.from_records(records)
        with pytest.raises(DataError, match="layer"):
            sf.fit_runset(runset, min_layers=1)


class TestFitRunset:
    def test_linear_space_reporting(self):
        runset, _ = ar32_synth(7)
        fit_log = sf.fit_runset(runset)
        fit_lin = sf.fit_runset(runset, space="linear")
        assert fit_log.residual_space == "log"
        assert fit_lin.residual_space == "linear"
        assert (fit_lin.alpha, fit_lin.beta) == (fit_log.alpha, fit_log.beta)
        assert fit_lin.r_squared == pytest.approx(
            sf.goodness_of_fit(runset.points(), fit_log, "linear")[0], abs=1e-15
        )


# Fits 100k seeded points (far above the size at which OpenBLAS threads a dot
# product) and prints the float.hex() of every fit and linear-space
# goodness-of-fit field.
_FIT_BITS = """
import dataclasses
import numpy as np
import scalefit as sf

rng = sf.substream(29, 0)
x = np.repeat(np.geomspace(1e4, 1e8, 40), 2500)
y = np.exp(3.0 - 0.08 * np.log(x) + rng.normal(0.0, 0.05, x.size))
points = np.column_stack([x, y])
fit = sf.fit_line(points)
fields = [v for v in dataclasses.astuple(fit) if isinstance(v, float)]
fields += sf.goodness_of_fit(points, fit, "linear")
print(" ".join(float(v).hex() for v in fields))
"""


def test_fit_bits_do_not_depend_on_blas_threads():
    src = str(Path(sf.__file__).resolve().parent.parent)
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ)
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _FIT_BITS], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        out.append(proc.stdout.split())
    assert len(out[0]) == 8
    assert out[0] == out[1]
