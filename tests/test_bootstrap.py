import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.bootstrap import (
    BLOCK,
    _block_coeffs,
    _hierarchical_stats,
    _naive_stats,
    _ols_rows,
    _Pool,
    _within_draws,
)
from scalefit.errors import DataError, DegenerateDataError
from scalefit.powerlaw import _ols_log

from conftest import ar32_synth


def exact_law_runset(n_dup=3):
    # every record sits exactly on y = 3x
    records = []
    for params in (1, 2, 4):
        for seed in range(n_dup):
            records.append(
                sf.RunRecord(
                    scale=sf.ScaleSpec.from_params(params),
                    task="t",
                    family="f",
                    pretrain_seed=0,
                    finetune_seed=seed,
                    metric="m",
                    value=3.0 * params,
                    direction="minimize",
                )
            )
    return sf.RunSet.from_records(records)


def single_scale_runset():
    records = [
        sf.RunRecord(
            scale=sf.ScaleSpec.from_params(100),
            task="t",
            family="f",
            pretrain_seed=0,
            finetune_seed=s,
            metric="m",
            value=2.0 + 0.1 * s,
            direction="minimize",
        )
        for s in range(5)
    ]
    return sf.RunSet.from_records(records)


class TestHierarchical:
    def test_exact_law_gives_zero_width(self):
        band = sf.bootstrap_band(
            exact_law_runset(), sf.BootstrapConfig(n_replicates=200, rng_seed=3)
        )
        lo, hi = band.slope_ci
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi - lo <= 1e-12
        ilo, ihi = band.intercept_ci
        assert ilo == pytest.approx(math.log(3), abs=1e-9)
        assert ihi - ilo <= 1e-12

    def test_determinism_same_seed(self):
        runset, _ = ar32_synth(11)
        cfg = sf.BootstrapConfig(n_replicates=120, rng_seed=5)
        assert sf.bootstrap_band(runset, cfg) == sf.bootstrap_band(runset, cfg)

    def test_seed_changes_output(self):
        runset, _ = ar32_synth(11)
        a = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=50, rng_seed=5))
        b = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=50, rng_seed=6))
        assert a.replicate_slopes != b.replicate_slopes

    def test_parallel_schedule_matches_serial(self):
        runset, _ = ar32_synth(12)
        cfg = sf.BootstrapConfig(n_replicates=200, rng_seed=9)
        serial = sf.bootstrap_band(runset, cfg)
        pool = _Pool(runset)
        blocks = list(range(-(-cfg.n_replicates // BLOCK)))[::-1]
        with ThreadPoolExecutor(max_workers=8) as ex:
            coeffs = dict(ex.map(lambda k: (k, _block_coeffs(pool, cfg, k)), blocks))
        slopes = np.concatenate([coeffs[k][0] for k in sorted(coeffs)])[: cfg.n_replicates]
        intercepts = np.concatenate([coeffs[k][1] for k in sorted(coeffs)])[: cfg.n_replicates]
        assert tuple(slopes.tolist()) == serial.replicate_slopes
        assert tuple(intercepts.tolist()) == serial.replicate_intercepts

    def test_exactly_b_replicates_with_redraws(self):
        # two scales: half of all scale draws are degenerate and get redrawn
        records = [
            sf.RunRecord(
                scale=sf.ScaleSpec.from_params(params),
                task="t",
                family="f",
                pretrain_seed=0,
                finetune_seed=s,
                metric="m",
                value=params * math.exp(0.01 * s),
                direction="minimize",
            )
            for params in (10, 1000)
            for s in range(4)
        ]
        runset = sf.RunSet.from_records(records)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=150, rng_seed=2))
        assert band.replicates_used == 150
        assert len(band.replicate_slopes) == 150

    def test_single_scale_aborts(self):
        cfg = sf.BootstrapConfig(n_replicates=10, rng_seed=0)
        with pytest.raises(DegenerateDataError, match="redraws"):
            sf.bootstrap_band(single_scale_runset(), cfg)


class TestNaive:
    def test_single_scale_always_degenerate(self):
        cfg = sf.BootstrapConfig(n_replicates=10, rng_seed=0, mode="naive")
        with pytest.raises(DegenerateDataError, match="redraws"):
            sf.bootstrap_band(single_scale_runset(), cfg)

    @pytest.mark.xfail(
        reason=(
            "two-stage resampling of finite groups stays conservative even with "
            "zero between-scale variance (measured median width ratio ~1.7), so "
            "the widths do not equalize"
        ),
        strict=True,
    )
    def test_width_agreement_without_between_scale_noise(self, sim_width_equal_noise):
        h = sim_width_equal_noise["median_hierarchical"]
        n = sim_width_equal_noise["median_naive"]
        assert abs(h - n) <= 0.25 * n

    def test_hierarchical_more_conservative_under_group_noise(self, sim_width_conservatism):
        assert (
            sim_width_conservatism["median_hierarchical"]
            > sim_width_conservatism["median_naive"]
        )


class TestBandStructure:
    def test_point_band_matches_direct_recomputation(self):
        runset, _ = ar32_synth(15)
        cfg = sf.BootstrapConfig(n_replicates=300, rng_seed=21)
        band = sf.bootstrap_band(runset, cfg)
        slopes = np.asarray(band.replicate_slopes)
        intercepts = np.asarray(band.replicate_intercepts)
        xs = np.array([x for x, _, _ in band.point_band])
        preds = np.exp(intercepts[:, None] + slopes[:, None] * np.log(xs)[None, :])
        lo = np.percentile(preds, cfg.lo_pct, axis=0)
        hi = np.percentile(preds, cfg.hi_pct, axis=0)
        assert [b[1] for b in band.point_band] == list(lo)
        assert [b[2] for b in band.point_band] == list(hi)

    def test_band_ordering_invariants(self):
        runset, _ = ar32_synth(16)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=200, rng_seed=22))
        assert band.slope_ci[0] <= band.slope_ci[1]
        for _, lo, hi in band.point_band:
            assert lo <= hi

    def test_percentile_bounds_contain_median_slope(self):
        runset, _ = ar32_synth(17)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=250, rng_seed=23))
        med = np.percentile(band.replicate_slopes, 50)
        assert band.slope_ci[0] <= med <= band.slope_ci[1]

    def test_quantile_transform_equivariance_on_degenerate_replicates(self):
        # with all replicates identical the percentile interpolation is exact
        # in both spaces, so log-space and value-space bands must coincide
        runset, _ = ar32_synth(18, sigma_fin=0.0)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=150, rng_seed=24))
        slopes = np.asarray(band.replicate_slopes)
        intercepts = np.asarray(band.replicate_intercepts)
        for x, lo, hi in band.point_band:
            log_preds = intercepts + slopes * math.log(x)
            assert math.exp(np.percentile(log_preds, band.lo_pct)) == pytest.approx(lo, rel=1e-9)
            assert math.exp(np.percentile(log_preds, band.hi_pct)) == pytest.approx(hi, rel=1e-9)

    def test_log_space_band_close_on_noisy_replicates(self):
        runset, _ = ar32_synth(19)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=400, rng_seed=25))
        slopes = np.asarray(band.replicate_slopes)
        intercepts = np.asarray(band.replicate_intercepts)
        for x, lo, hi in band.point_band[::6]:
            log_preds = intercepts + slopes * math.log(x)
            assert math.exp(np.percentile(log_preds, band.lo_pct)) == pytest.approx(lo, rel=1e-6)
            assert math.exp(np.percentile(log_preds, band.hi_pct)) == pytest.approx(hi, rel=1e-6)

    def test_interval_at_matches_point_band(self):
        runset, _ = ar32_synth(20)
        target = sf.ScaleSpec.from_dims(12, 768)
        grid = (*sf.default_grid(runset), float(target.params))
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=150, rng_seed=26), grid)
        row = next(r for r in band.point_band if r[0] == float(target.params))
        lo, hi = band.interval_at(float(target.params))
        assert lo == pytest.approx(row[1], rel=1e-12)
        assert hi == pytest.approx(row[2], rel=1e-12)

    def test_default_grid_covers_data_and_targets(self):
        # the default grid spans the data; a target beyond it is banded by
        # interval_at from the replicates, whatever the grid
        runset, _ = ar32_synth(27)
        grid = sf.default_grid(runset)
        assert grid[0] == float(runset.scales[0].params)
        assert grid[-1] == float(runset.scales[-1].params)
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=27)
        wide = sf.bootstrap_band(runset, cfg, (*grid, 1e9))
        assert sf.bootstrap_band(runset, cfg).interval_at(1e9) == wide.point_band[-1][1:]


class TestDerivedBand:
    """A band derives its intervals from the replicates it was built from."""

    def test_direct_construction_derives_intervals(self):
        rng = np.random.default_rng(31)
        slopes = tuple(rng.normal(0.08, 0.01, 101).tolist())
        intercepts = tuple(rng.normal(3.0, 0.1, 101).tolist())
        band = sf.BootstrapBand(slopes, intercepts, 5.0, 95.0, grid=(10.0, 1e4))
        assert band.slope_ci == tuple(np.percentile(slopes, (5.0, 95.0)).tolist())
        assert band.intercept_ci == tuple(np.percentile(intercepts, (5.0, 95.0)).tolist())
        assert band.replicates_used == len(slopes) == 101
        assert [x for x, _, _ in band.point_band] == [10.0, 1e4]
        for x, lo, hi in band.point_band:
            assert (lo, hi) == band.interval_at(x)

    def test_rebuilt_band_equals_bootstrap_band(self):
        runset, _ = ar32_synth(32)
        cfg = sf.BootstrapConfig(n_replicates=90, lo_pct=10.0, hi_pct=90.0, rng_seed=32)
        band = sf.bootstrap_band(runset, cfg)
        rebuilt = sf.BootstrapBand(
            band.replicate_slopes, band.replicate_intercepts, 10.0, 90.0, sf.default_grid(runset)
        )
        assert rebuilt == band

    def test_grid_is_not_a_field(self):
        runset, _ = ar32_synth(33)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=33))
        names = {f.name for f in dataclasses.fields(band)}
        assert "grid" not in names
        assert {"slope_ci", "intercept_ci", "point_band", "replicates_used"} <= names

    def test_mismatched_replicates_rejected(self):
        with pytest.raises(DataError, match="one intercept per replicate slope"):
            sf.BootstrapBand((0.1, 0.2), (1.0,), 2.5, 97.5, grid=(10.0,))
        with pytest.raises(DataError, match="at least one replicate"):
            sf.BootstrapBand((), (), 2.5, 97.5, grid=(10.0,))

    @pytest.mark.parametrize("grid", [(), (0.0,), (math.nan,), (math.inf,), (10.0, -1.0)])
    def test_bootstrap_band_rejects_bad_grid(self, grid):
        runset, _ = ar32_synth(34)
        with pytest.raises(DataError, match="positive and finite"):
            sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=34), grid)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan, math.inf])
    def test_interval_at_rejects_bad_abscissa(self, x):
        runset, _ = ar32_synth(35)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=35))
        with pytest.raises(DataError, match="positive and finite"):
            band.interval_at(x)

    def test_overflowing_band_names_the_abscissa(self):
        band_args = ((30.0, 31.0), (1.0, 1.0), 2.5, 97.5)
        with pytest.raises(DataError, match="x=1e\\+30 is not finite"):
            sf.BootstrapBand(*band_args, grid=(10.0, 1e30))
        with pytest.raises(DataError, match="x=1e\\+30 is not finite"):
            sf.BootstrapBand(*band_args, grid=(10.0,)).interval_at(1e30)


def ragged_runset(seed, sizes):
    # AR-32 ladder keeping sizes[k] of the six runs at scale k
    runset, _ = ar32_synth(seed, seeds_per_scale=6)
    seeds = np.array([r.finetune_seed for r in runset.records])
    return runset.filter(seeds < np.asarray(sizes)[runset.code])


def expanded_ols(pool, groups_of_rows):
    # loop reference: _ols_log on each row's explicit list of pool positions
    return [_ols_log(pool.group_u[pool.code[p]], pool.v[p]) for p in groups_of_rows]


def assert_rows_match(slopes, intercepts, reference):
    for r, (a, b) in enumerate(reference):
        assert slopes[r] == pytest.approx(a, rel=1e-12, abs=0)
        assert intercepts[r] == pytest.approx(b, rel=1e-12, abs=0)


class TestBlocks:
    @pytest.mark.parametrize("sizes", [None, (1, 6, 2, 5, 3, 6, 4, 2)], ids=["uniform", "ragged"])
    def test_hierarchical_batched_fit_matches_loop(self, sizes):
        runset = ar32_synth(31)[0] if sizes is None else ragged_runset(31, sizes)
        pool = _Pool(runset)
        rng = sf.substream(7, 0)
        groups = rng.integers(0, pool.n_groups, size=(BLOCK, pool.n_groups))
        positions = _within_draws(pool, rng, groups)
        slopes, intercepts = _ols_rows(*_hierarchical_stats(pool, groups, positions))
        row_lengths = pool.sizes[groups].sum(axis=1)
        rows = np.split(positions, np.cumsum(row_lengths)[:-1])
        if sizes is not None:
            assert len(set(row_lengths.tolist())) > 1  # rows differ in length
        assert_rows_match(slopes, intercepts, expanded_ols(pool, rows))

    def test_naive_batched_fit_matches_loop(self):
        pool = _Pool(ragged_runset(32, (2, 6, 1, 5, 3, 6, 4, 2)))
        idx = sf.substream(8, 0).integers(0, pool.v.size, size=(BLOCK, pool.v.size))
        slopes, intercepts = _ols_rows(*_naive_stats(pool, idx))
        assert_rows_match(slopes, intercepts, expanded_ols(pool, idx))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        b1=st.integers(1, 3 * BLOCK),
        extra=st.integers(1, 3 * BLOCK),
        mode=st.sampled_from(["hierarchical", "naive"]),
        sizes=st.none() | st.lists(st.integers(1, 6), min_size=8, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_shorter_run_is_prefix_of_longer(self, b1, extra, mode, sizes, seed):
        runset = ar32_synth(33)[0] if sizes is None else ragged_runset(33, sizes)
        short = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=b1, rng_seed=seed, mode=mode))
        long = sf.bootstrap_band(
            runset, sf.BootstrapConfig(n_replicates=b1 + extra, rng_seed=seed, mode=mode)
        )
        assert long.replicate_slopes[:b1] == short.replicate_slopes
        assert long.replicate_intercepts[:b1] == short.replicate_intercepts

    def test_one_substream_per_block(self, monkeypatch):
        opened = []
        real = sf.bootstrap.substream

        def spy(seed, stream):
            opened.append((seed, stream))
            return real(seed, stream)

        monkeypatch.setattr(sf.bootstrap, "substream", spy)
        runset, _ = ar32_synth(34)
        sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=2 * BLOCK + 1, rng_seed=3))
        assert opened == [(3, 0), (3, 1), (3, 2)]


class TestConfigValidation:
    def test_bad_percentiles(self):
        with pytest.raises(DataError):
            sf.BootstrapConfig(lo_pct=97.5, hi_pct=2.5)

    def test_bad_mode(self):
        with pytest.raises(DataError):
            sf.BootstrapConfig(mode="jackknife")

    def test_bad_replicates(self):
        with pytest.raises(DataError):
            sf.BootstrapConfig(n_replicates=0)

    def test_defaults(self):
        cfg = sf.BootstrapConfig()
        assert cfg.n_replicates == 1000
        assert (cfg.lo_pct, cfg.hi_pct) == (2.5, 97.5)


def test_slope_ci_coverage(sim_slope_coverage):
    assert sim_slope_coverage["coverage"] >= 0.85
