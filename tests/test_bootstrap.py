import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalefit as sf
from scalefit.bootstrap import (
    BLOCK,
    _degenerate,
    _hierarchical_stats,
    _lemire,
    _margin,
    _naive_stats,
    _ols_rows,
    _percentiles,
    _Pool,
    _Short,
    _splice,
    _take,
    _word_draws,
)
from scalefit.errors import DataError, DegenerateDataError
from scalefit.powerlaw import _ols_log
from scalefit.rng import Substreams

from conftest import _block_draws, _within_draws, ar32_synth, philox_words, reduce_blocks


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


def two_scale_runset(seeds_per_scale):
    # two scales: many scale draws are degenerate and get redrawn
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
        for s in range(seeds_per_scale)
    ]
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

        def fit_alone(k):  # threads must not share a Substreams
            return k, reduce_blocks(pool, cfg.mode, [_word_draws(pool, cfg, range(k, k + 1), Substreams(cfg.rng_seed))])

        with ThreadPoolExecutor(max_workers=8) as ex:
            coeffs = dict(ex.map(fit_alone, blocks))
        slopes = np.concatenate([coeffs[k][0] for k in sorted(coeffs)])[: cfg.n_replicates]
        intercepts = np.concatenate([coeffs[k][1] for k in sorted(coeffs)])[: cfg.n_replicates]
        assert tuple(slopes.tolist()) == serial.replicate_slopes
        assert tuple(intercepts.tolist()) == serial.replicate_intercepts

    def test_exactly_b_replicates_with_redraws(self):
        runset = two_scale_runset(4)
        band = sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=150, rng_seed=2))
        assert len(band.replicate_slopes) == len(band.replicate_intercepts) == 150

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

    def test_one_point_grid_matches_point_band(self):
        runset, _ = ar32_synth(20)
        target = sf.ScaleSpec.from_dims(12, 768)
        grid = (*sf.default_grid(runset), float(target.params))
        cfg = sf.BootstrapConfig(n_replicates=150, rng_seed=26)
        band = sf.bootstrap_band(runset, cfg, grid)
        row = next(r for r in band.point_band if r[0] == float(target.params))
        lo, hi = sf.bootstrap_band(runset, cfg, (float(target.params),)).point_band[0][1:]
        assert lo == pytest.approx(row[1], rel=1e-12)
        assert hi == pytest.approx(row[2], rel=1e-12)

    def test_default_grid_covers_data_and_targets(self):
        # the default grid spans the data; a target beyond it is banded by a
        # one-point grid from the same replicates, whatever the grid
        runset, _ = ar32_synth(27)
        grid = sf.default_grid(runset)
        assert grid[0] == float(runset.scales[0].params)
        assert grid[-1] == float(runset.scales[-1].params)
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=27)
        wide = sf.bootstrap_band(runset, cfg, (*grid, 1e9))
        assert sf.bootstrap_band(runset, cfg, (1e9,)).point_band[0][1:] == wide.point_band[-1][1:]


class TestDerivedBand:
    """A band derives its intervals from the replicates it was built from."""

    def test_direct_construction_derives_intervals(self):
        rng = np.random.default_rng(31)
        slopes = tuple(rng.normal(0.08, 0.01, 101).tolist())
        intercepts = tuple(rng.normal(3.0, 0.1, 101).tolist())
        band = sf.BootstrapBand(slopes, intercepts, 5.0, 95.0, grid=(10.0, 1e4))
        assert band.slope_ci == tuple(np.percentile(slopes, (5.0, 95.0)).tolist())
        assert band.intercept_ci == tuple(np.percentile(intercepts, (5.0, 95.0)).tolist())
        assert len(band.replicate_slopes) == len(slopes) == 101
        assert [x for x, _, _ in band.point_band] == [10.0, 1e4]
        for x, lo, hi in band.point_band:
            assert (lo, hi) == sf.BootstrapBand(slopes, intercepts, 5.0, 95.0, grid=(x,)).point_band[0][1:]

    @pytest.mark.parametrize("pcts", [(2.5, 97.5), (0.0, 100.0)])
    @pytest.mark.parametrize("b", [1, 2, 33, 1000])
    def test_one_table_equals_three_percentile_calls(self, b, pcts):
        rng = np.random.default_rng(b)
        slopes, intercepts = rng.normal(0.08, 0.01, b), rng.normal(3.0, 0.1, b)
        xs = np.geomspace(1e4, 1e12, 25)
        band = sf.BootstrapBand(slopes, intercepts, *pcts, grid=xs)
        preds = np.exp(intercepts[:, None] + slopes[:, None] * np.log(xs))
        lo, hi = np.percentile(preds, pcts, axis=0)
        assert np.array(band.slope_ci).tobytes() == np.percentile(slopes, pcts).tobytes()
        assert np.array(band.intercept_ci).tobytes() == np.percentile(intercepts, pcts).tobytes()
        assert np.array(band.point_band).tobytes() == np.column_stack((xs, lo, hi)).tobytes()

    @pytest.mark.parametrize("pcts", [(2.5, 97.5), (0.0, 100.0)])
    @pytest.mark.parametrize("b", [1, 2, 33, 1000])
    def test_overflow_at_the_last_grid_point_names_it(self, b, pcts):
        rng = np.random.default_rng(b)
        slopes, intercepts = rng.normal(30.0, 0.01, b), rng.normal(1.0, 0.1, b)
        finite = sf.BootstrapBand(slopes, intercepts, *pcts, grid=(10.0, 1e4))
        assert all(np.isfinite(row).all() for row in finite.point_band)
        with pytest.raises(DataError, match="x=1e\\+30 is not finite"):
            sf.BootstrapBand(slopes, intercepts, *pcts, grid=(10.0, 1e4, 1e30))

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
        assert {"slope_ci", "intercept_ci", "point_band"} <= names
        assert "replicates_used" not in names

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
    def test_one_point_grid_rejects_bad_abscissa(self, x):
        runset, _ = ar32_synth(35)
        with pytest.raises(DataError, match="positive and finite"):
            sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=40, rng_seed=35), (x,))

    def test_overflowing_band_names_the_abscissa(self):
        band_args = ((30.0, 31.0), (1.0, 1.0), 2.5, 97.5)
        with pytest.raises(DataError, match="x=1e\\+30 is not finite"):
            sf.BootstrapBand(*band_args, grid=(10.0, 1e30))
        with pytest.raises(DataError, match="x=1e\\+30 is not finite"):
            sf.BootstrapBand(*band_args, grid=(1e30,))


class TestPercentileRule:
    """A band takes its edges from its sorted table by numpy's ``linear``
    percentile rule written out, which must be ``np.percentile``'s bits.
    Zeros of both signs tie, and sorting and numpy's partition may order
    them differently, so no tied value here is a zero."""

    @pytest.mark.parametrize("pcts", [(2.5, 97.5), (0.0, 100.0), (0.1, 99.9), (50.0, 50.5)])
    @pytest.mark.parametrize("b", [1, 2, 3, 33, 1000, 2000])
    def test_written_out_rule_equals_np_percentile(self, b, pcts):
        rng = np.random.default_rng(b)
        spiked = rng.normal(0.0, 1.0, b)
        spiked[rng.permutation(b)[: max(1, b // 10)]] = np.inf
        spiked[rng.permutation(b)[: max(1, b // 10)]] = -np.inf
        holed = rng.normal(3.0, 0.1, b)
        holed[rng.integers(b)] = np.nan
        table = np.vstack((
            rng.normal(0.08, 0.01, b),
            np.round(rng.normal(5.0, 1.0, b), 1),  # tied values, none of them a zero
            np.full(b, 7.25),
            np.full(b, np.inf),
            np.full(b, -np.inf),
            spiked,
            holed,
            np.full(b, np.nan),
        ))
        with np.errstate(invalid="ignore"):
            expected = np.percentile(table, pcts, axis=1)
            got = _percentiles(np.sort(table, axis=1), pcts)
        assert got.shape == expected.shape == (2, len(table))
        assert got.tobytes() == expected.tobytes()


def ragged_runset(seed, sizes):
    # AR-32 ladder keeping sizes[k] of the six (or max(sizes), if more) runs at scale k
    runset, _ = ar32_synth(seed, seeds_per_scale=max(6, *sizes))
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

    def test_uniform_within_draws_match_the_array_bound_draw(self):
        pool = _Pool(ar32_synth(38)[0])
        assert pool.common_size == 5
        rng = sf.substream(9, 0)
        groups = rng.integers(0, pool.n_groups, size=(BLOCK, pool.n_groups))
        counts = pool.sizes[groups].ravel()
        reference = rng.integers(0, np.repeat(counts, counts)) + np.repeat(pool.start[groups].ravel(), counts)
        cfg = sf.BootstrapConfig(n_replicates=BLOCK, rng_seed=9)
        drawn = _word_draws(pool, cfg, range(1), Substreams(9))
        assert drawn[0].tolist() == groups.tolist()
        assert drawn[1].tolist() == reference.tolist()

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

    @pytest.mark.parametrize("mode", ["hierarchical", "naive"])
    @pytest.mark.parametrize(
        "make, redraws",
        [
            (lambda: ar32_synth(36)[0], False),
            (lambda: ragged_runset(36, (1, 6, 2, 5, 3, 6, 4, 2)), False),
            (lambda: two_scale_runset(2), True),
        ],
        ids=["uniform", "ragged-with-a-size-1-group", "forced-redraws"],
    )
    def test_reducing_blocks_together_equals_reducing_each_alone(self, mode, make, redraws):
        pool = _Pool(make())
        cfg = sf.BootstrapConfig(n_replicates=5 * BLOCK, rng_seed=41, mode=mode)
        blocks = [_block_draws(pool, cfg, k, Substreams(41)) for k in range(5)]
        alone = [reduce_blocks(pool, mode, [draws]) for draws in blocks]
        together = reduce_blocks(pool, mode, blocks)
        for i in (0, 1):
            assert np.concatenate([fit[i] for fit in alone]).tobytes() == together[i].tobytes()
        if redraws:  # some first scale draw of a block is degenerate
            width, key = (pool.n_groups, pool.group_params) if mode == "hierarchical" else (pool.v.size, pool.params)
            first = [sf.substream(41, k).integers(0, width, size=(BLOCK, width)) for k in range(5)]
            assert any(_degenerate(key[draws]).any() for draws in first)

    @pytest.mark.parametrize("mode", ["hierarchical", "naive"])
    @pytest.mark.parametrize(
        "sizes", [None, (1, 6, 2, 5, 3, 6, 4, 2), (60, 1, 1, 1, 1, 1, 1, 1)], ids=["uniform", "ragged", "skewed"]
    )
    @pytest.mark.parametrize("budget", [1, 930, 2000, 2**14, 2**40])
    def test_band_does_not_depend_on_the_reduce_budget(self, monkeypatch, mode, sizes, budget):
        # budget 1 reduces every block alone, 2**40 all blocks at once; a
        # ragged hierarchical block holds 900-960 positions, on both sides of
        # 930.  A skewed block holds far fewer positions than its widest
        # possible resample (8 draws of the group of 60), which sets the run.
        runset = ar32_synth(37)[0] if sizes is None else ragged_runset(37, sizes)
        cfg = sf.BootstrapConfig(n_replicates=10 * BLOCK + 3, rng_seed=37, mode=mode)
        pool = _Pool(runset)
        alone = [reduce_blocks(pool, mode, [_block_draws(pool, cfg, k, Substreams(37))]) for k in range(11)]
        batches = []  # (rows, index elements) of each run

        def spy(pool, cfg, blocks, streams):
            draws = _word_draws(pool, cfg, blocks, streams)
            batches.append((len(draws[0]), draws[-1].size))
            return draws

        monkeypatch.setattr(sf.bootstrap, "REDUCE_ELEMENTS", budget)
        monkeypatch.setattr(sf.bootstrap, "_word_draws", spy)
        band = sf.bootstrap_band(runset, cfg)
        assert band.replicate_slopes == tuple(np.concatenate([f[0] for f in alone])[: cfg.n_replicates].tolist())
        assert band.replicate_intercepts == tuple(np.concatenate([f[1] for f in alone])[: cfg.n_replicates].tolist())
        assert sum(rows for rows, _ in batches) == 11 * BLOCK
        assert all(rows == BLOCK or elements <= budget for rows, elements in batches)

    @pytest.mark.parametrize(
        "mode, sizes",
        [
            ("hierarchical", None),
            ("hierarchical", (1, 6, 2, 5, 3, 6, 4, 2)),
            ("naive", None),
            ("naive", (1, 6, 2, 5, 3, 6, 4, 2)),
        ],
        ids=["uniform", "ragged", "naive", "naive-ragged"],
    )
    def test_one_substream_per_block(self, monkeypatch, mode, sizes):
        # one generator per band, re-keyed once for each block, in order
        made, opened = [], []
        real_init, real_open = Substreams.__init__, Substreams.open

        def init(self, seed):
            made.append(seed)
            real_init(self, seed)

        def open_(self, stream):
            opened.append((self.seed, stream))
            return real_open(self, stream)

        runset = ar32_synth(34)[0] if sizes is None else ragged_runset(34, sizes)
        monkeypatch.setattr(Substreams, "__init__", init)
        monkeypatch.setattr(Substreams, "open", open_)
        sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=2 * BLOCK + 1, rng_seed=3, mode=mode))
        assert made == [3]
        assert opened == [(3, 0), (3, 1), (3, 2)]


def per_block_band(runset, cfg):
    # reference: every block drawn by _block_draws and fitted alone
    pool, streams = _Pool(runset), Substreams(cfg.rng_seed)
    n_blocks = -(-cfg.n_replicates // BLOCK)
    fits = [reduce_blocks(pool, cfg.mode, [_block_draws(pool, cfg, k, streams)]) for k in range(n_blocks)]
    return tuple(tuple(np.concatenate([f[i] for f in fits])[: cfg.n_replicates].tolist()) for i in (0, 1))


def raw_halves(rng, n):
    # the 32-bit halves of n raw 64-bit words, low half first
    return rng.bit_generator.random_raw(n).astype("<u8").view("<u4")


def assert_stream_goes_on_at(rng, halves, at):
    # the generator's next 32-bit halves, a spare one first, are halves[at:]
    assert rng.integers(0, 2**32, size=5, dtype=np.uint32).tolist() == halves[at : at + 5].tolist()


KEYS = [(0, 0), (0, 2**64 - 1), (1, 0), (1, 1), (2**63, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1)]


def take_one(halves, bound, count):
    # one stream's next ``count`` draws at one bound, and its next position
    values, at = _take(halves[None], bound, count, 0)
    return values.ravel(), int(np.max(at))


def threshold(bound):
    # numpy rejects a word whose Lemire leftover is below this
    return (2**32 - bound) % bound


# Mixed group sizes, a group of one record among them, over the eight AR-32
# scales; ragged_runset drops a scale of size 0.
MIXED_SIZES = (
    st.lists(st.integers(0, 7), min_size=7, max_size=7)
    .filter(lambda sizes: max(sizes) > 1)
    .flatmap(lambda sizes: st.permutations([1, *sizes]))
)
SEEDS = st.sampled_from([0, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


class TestWordLevelDraws:
    """Every pool draws from raw Philox words with numpy's Lemire bound.
    These pin the stream layout that this takes for granted, so a numpy that
    lays it out otherwise fails here."""

    @pytest.mark.parametrize("seed, stream", KEYS, ids=[f"key-{(s << 64) | k:#x}" for s, k in KEYS])
    def test_rekeyed_generator_equals_substream(self, seed, stream):
        streams = Substreams(seed)
        streams.open(stream ^ 1).integers(0, 7, size=3)  # leaves a spare 32-bit half and a part-used buffer
        assert streams.rng.bit_generator.state["has_uint32"] == 1
        rekeyed = streams.open(stream)
        fresh = np.random.Generator(np.random.Philox(key=(seed << 64) | stream))
        assert generator_state(rekeyed) == generator_state(fresh)
        assert rekeyed.integers(0, 7, size=5).tolist() == fresh.integers(0, 7, size=5).tolist()
        assert rekeyed.bit_generator.random_raw(9).tolist() == fresh.bit_generator.random_raw(9).tolist()
        assert generator_state(rekeyed) == generator_state(fresh)

    @pytest.mark.parametrize("bound", [1, 2, 5, 7, 8, 13, 60])
    def test_lemire_equals_integers(self, bound):
        keys = np.random.default_rng(bound).integers(0, 2**64, size=(4, 2), dtype=np.uint64).tolist()
        for seed, stream in keys:
            a, b = sf.substream(seed, stream), sf.substream(seed, stream)
            values, leftover = _lemire(raw_halves(a, 320), bound)
            expected = b.integers(0, bound, size=640)
            assert not (leftover < threshold(bound)).any()
            assert values.dtype == expected.dtype
            assert values.tolist() == expected.tolist()
            if bound == 1:  # takes no word
                assert generator_state(b) == generator_state(sf.substream(seed, stream))
            else:
                assert generator_state(a) == generator_state(b)

    @pytest.mark.parametrize("bound", [3 * 2**30, 2**31 + 1])
    def test_rejected_word_is_skipped_by_integers(self, bound):
        # about a quarter and a half of the words are rejected at these bounds
        values, leftover = _lemire(raw_halves(sf.substream(5, 6), 320), bound)
        rejected = leftover < threshold(bound)
        assert 0 < rejected.sum() < rejected.size
        assert values[~rejected].tolist() == sf.substream(5, 6).integers(0, bound, size=int((~rejected).sum())).tolist()

    def test_hand_made_word_is_rejected(self):
        values, leftover = _lemire(np.array([0, 1], dtype=np.uint32), 5)
        assert values.tolist() == [0, 0]
        assert (leftover < threshold(5)).tolist() == [True, False]

    @pytest.mark.parametrize("key", range(4))
    def test_array_bound_takes_one_half_per_value_and_none_for_a_bound_of_one(self, key):
        # the within-group draw: one 32-bit half per value, low half first, in
        # order, and none for a bound of 1; random_raw then continues the
        # stream after the even number of halves taken
        bounds = np.random.default_rng(key).choice([1, 1, 2, 3, 5, 60, 2500], size=301)
        bounds = np.concatenate([bounds, np.full((bounds > 1).sum() % 2, 7)])  # an even number of halves
        taken = int((bounds > 1).sum())
        a, b = sf.substream(key, 7), sf.substream(key, 7)
        drawn = a.integers(0, bounds)
        words = b.bit_generator.random_raw(taken // 2 + 3)
        halves = [half for word in words.tolist() for half in (word & 0xFFFFFFFF, word >> 32)]
        expected, at = [], 0
        for bound in bounds.tolist():
            if bound == 1:
                expected.append(0)
                continue
            product = halves[at] * bound
            assert product & 0xFFFFFFFF >= threshold(bound)  # kept, so the value is the word's
            expected.append(product >> 32)
            at += 1
        assert at == taken
        assert drawn.tolist() == expected
        assert a.bit_generator.state["has_uint32"] == 0
        assert a.bit_generator.random_raw(3).tolist() == words[taken // 2:].tolist()

    @pytest.mark.parametrize("seed, stream", KEYS, ids=[f"key-{(s << 64) | k:#x}" for s, k in KEYS])
    def test_philox_reference_equals_random_raw(self, seed, stream):
        # the substream layout, pinned without numpy: key [stream, seed] and a
        # counter whose first block is 1
        assert philox_words(seed, stream, 9) == Substreams(seed).open(stream).bit_generator.random_raw(9).tolist()

    @pytest.mark.parametrize("key", range(3))
    @pytest.mark.parametrize("bound", [3 * 2**30, 2**31 + 1])
    def test_splice_equals_integers_where_many_halves_are_rejected(self, bound, key):
        # about a quarter and about a half of the halves are rejected here, so
        # the halves that the margin allows run short; 4 a value do not
        count = 2000
        halves = raw_halves(sf.substream(key, 3), 2 * count)
        with pytest.raises(_Short):
            take_one(halves[: count + _margin(count, threshold(bound))], bound, count)
        values, at = take_one(halves, bound, count)
        rng = sf.substream(key, 3)
        assert values.tolist() == rng.integers(0, bound, size=count).tolist()
        assert_stream_goes_on_at(rng, halves, at)

    @pytest.mark.parametrize("key", range(3))
    def test_splice_of_per_value_bounds_equals_integers(self, key):
        # one bound per value, 1 (no half), 5, 2500 and 2**31 + 1 mixed
        bounds = np.random.default_rng(key).choice([1, 5, 2500, 2**31 + 1], size=301).astype(np.uint64)
        halves = raw_halves(sf.substream(key, 4), 400)
        values, at = _splice(halves, 0, bounds, np.ones(bounds.size, dtype=int))
        rng = sf.substream(key, 4)
        assert values.tolist() == rng.integers(0, bounds).tolist()
        assert_stream_goes_on_at(rng, halves, at)
        with pytest.raises(_Short):
            _splice(halves[: at - 1], 0, bounds, np.ones(bounds.size, dtype=int))

    def test_splice_steps_over_rejected_halves_at_window_edges(self):
        # _splice pairs halves with their bounds 2**16 at a time, from the
        # last rejected half on.  Halves of 0, which bounds 5 and 2500 reject,
        # end the first window, begin the next two and end the fourth; the
        # fifth takes a whole window with no rejection.  The values follow
        # numpy's rule half by half.
        bounds = np.array([2500, 1, 5, 2500], dtype=np.uint64)
        counts = np.array([70_000, 3, 60_000, 70_000])
        halves = raw_halves(sf.substream(7, 4), 110_000).copy()
        halves[[65_535, 65_536, 65_537, 131_073]] = 0
        values, at = _splice(halves, 0, bounds, counts)
        expected, i, words = [], 0, halves.tolist()
        for bound in np.repeat(bounds, counts).tolist():
            while bound > 1 and (words[i] * bound) & 0xFFFFFFFF < threshold(bound):
                i += 1
            expected.append((words[i] * bound) >> 32 if bound > 1 else 0)
            i += bound > 1
        assert values.tolist() == expected
        assert at == i

    def test_splice_goes_on_from_a_spare_half(self):
        # the first call takes an odd number of halves; the second starts at
        # the next half, not the next 64-bit word
        halves = raw_halves(sf.substream(6, 5), 100)
        rng = sf.substream(6, 5)
        first, at = take_one(halves, 5, 7)
        assert at % 2 == 1
        assert first.tolist() == rng.integers(0, 5, size=7).tolist()
        second, at = _splice(halves, at, np.array([2500, 1, 7] * 5, dtype=np.uint64), np.array([2, 3, 1] * 5))
        assert second.tolist() == rng.integers(0, np.repeat([2500, 1, 7] * 5, [2, 3, 1] * 5)).tolist()
        assert_stream_goes_on_at(rng, halves, at)

    def test_pooled_draw_short_of_its_margin_reads_on(self, monkeypatch):
        # with no margin, block 0's pooled draw, which holds a rejected half
        # at position 26,337, runs short of the halves first read: its
        # stream is read again, and the draw takes the longer read's halves
        runset = ragged_runset(44, [161] * 7 + [162])
        cfg = sf.BootstrapConfig(n_replicates=BLOCK, rng_seed=1, mode="naive")
        expected = per_block_band(runset, cfg)
        opened = []
        real_open = Substreams.open
        monkeypatch.setattr(sf.bootstrap, "_margin", lambda count, threshold: 0)
        monkeypatch.setattr(Substreams, "open", lambda self, stream: opened.append(stream) or real_open(self, stream))
        band = sf.bootstrap_band(runset, cfg)
        assert opened == [0, 0]
        assert (band.replicate_slopes, band.replicate_intercepts) == expected

    def test_forced_redraws_reproduce_the_per_block_band(self):
        runset = two_scale_runset(4)
        pool = _Pool(runset)
        cfg = sf.BootstrapConfig(n_replicates=5 * BLOCK, rng_seed=41)
        assert pool.common_size == 4
        first = [sf.substream(41, k).integers(0, 2, size=(BLOCK, 2)) for k in range(5)]
        assert any(_degenerate(pool.group_params[draws]).any() for draws in first)
        band = sf.bootstrap_band(runset, cfg)
        assert (band.replicate_slopes, band.replicate_intercepts) == per_block_band(runset, cfg)

    @pytest.mark.parametrize(
        "mode, sizes, blocks, at",
        [
            ("hierarchical", None, [1], BLOCK * 8 + 5),
            ("hierarchical", (3, 1, 0, 5, 2, 6, 4, 2), [1, 2], 5),
            ("naive", (3, 1, 0, 5, 2, 6, 4, 2), [1], 5),
        ],
        ids=["uniform", "ragged", "naive"],
    )
    def test_rejected_word_redraws_its_block(self, monkeypatch, mode, sizes, blocks, at):
        # the ragged pool holds 7 scales of 1-6 records, 23 in all: each of
        # its bounds but 1 and 2 has a rejection threshold above 0.  A half
        # of 0 has the leftover 0, so it is rejected wherever the threshold
        # is above 0: at half ``at`` that is the uniform pool's within-group
        # draw (bound 5; the scale draw's bound 8 rejects nothing), and the
        # scale or pooled draw of the others.  Inserted into the streams of
        # ``blocks``, it must be spliced out; a half of 2**32 - 1, which every
        # bound accepts, moves the draws along instead.
        runset = ar32_synth(42)[0] if sizes is None else ragged_runset(44, sizes)
        cfg = sf.BootstrapConfig(n_replicates=3 * BLOCK, rng_seed=42, mode=mode)
        expected = per_block_band(runset, cfg)
        real_open = Substreams.open

        def band_with_an_inserted_half(half):
            class Bits:  # the words of the stream with ``half`` inserted at ``at``
                def __init__(self, bits):
                    self.bits = bits

                def random_raw(self, n):
                    halves = np.insert(self.bits.random_raw(n).astype("<u8").view("<u4"), at, half)
                    return halves[: 2 * n].view("<u8")

            def open_(self, stream):
                rng = real_open(self, stream)
                return SimpleNamespace(bit_generator=Bits(rng.bit_generator)) if stream in blocks else rng

            with monkeypatch.context() as patch:
                patch.setattr(Substreams, "open", open_)
                band = sf.bootstrap_band(runset, cfg)
            return band.replicate_slopes, band.replicate_intercepts

        assert band_with_an_inserted_half(0) == expected
        assert band_with_an_inserted_half(2**32 - 1) != expected

    @pytest.mark.parametrize(
        "mode, sizes", [("hierarchical", (5, 1, 3, 2)), ("naive", (1, 1, 1, 2))], ids=["ragged", "naive"]
    )
    def test_degenerate_rows_redraw_exactly_their_blocks(self, mode, sizes):
        # four scales: some blocks' first draws hold a row of one scale, others none
        runset = ragged_runset(44, (*sizes, 0, 0, 0, 0))
        pool = _Pool(runset)
        cfg = sf.BootstrapConfig(n_replicates=12 * BLOCK, rng_seed=45, mode=mode)
        width, key = (pool.n_groups, pool.group_params) if mode == "hierarchical" else (pool.v.size, pool.params)
        first = [sf.substream(45, k).integers(0, width, size=(BLOCK, width)) for k in range(12)]
        degenerate = [k for k, draws in enumerate(first) if _degenerate(key[draws]).any()]
        assert 0 < len(degenerate) < 12
        band = sf.bootstrap_band(runset, cfg)
        assert (band.replicate_slopes, band.replicate_intercepts) == per_block_band(runset, cfg)

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        m=st.integers(2, 13),
        h=st.integers(1, 7),
        b=st.integers(1, 7 * BLOCK),
        seed=SEEDS,
    )
    def test_word_level_band_equals_per_block_band(self, m, h, b, seed):
        runset, _ = ar32_synth(43, seeds_per_scale=h, scales=sf.scale_ladder(32, range(1, m + 1)))
        cfg = sf.BootstrapConfig(n_replicates=b, rng_seed=seed)
        band = sf.bootstrap_band(runset, cfg)
        assert (band.replicate_slopes, band.replicate_intercepts) == per_block_band(runset, cfg)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        sizes=MIXED_SIZES,
        mode=st.sampled_from(["hierarchical", "naive"]),
        b=st.integers(1, 7 * BLOCK),
        seed=SEEDS,
    )
    # 1,289 records: block 0's pooled draw at seed 1 holds a half that numpy rejects
    @example(sizes=[161] * 7 + [162], mode="naive", b=BLOCK, seed=1)
    # one pooled block of 100,000 records: about 50 rejected halves
    @example(sizes=[12_500] * 8, mode="naive", b=BLOCK, seed=1)
    def test_mixed_sizes_band_equals_per_block_band(self, sizes, mode, b, seed):
        runset = ragged_runset(44, sizes)
        cfg = sf.BootstrapConfig(n_replicates=b, rng_seed=seed, mode=mode)
        band = sf.bootstrap_band(runset, cfg)
        assert (band.replicate_slopes, band.replicate_intercepts) == per_block_band(runset, cfg)


def shared_params_runset(sizes):
    # from_params(12288) and from_dims(1, 32) are two scales with one
    # parameter count, as in same_params_pair in test_records.py; sizes[k]
    # records at each of them and at two other scales
    scales = (
        sf.ScaleSpec.from_params(12288),
        sf.ScaleSpec.from_dims(1, 32),
        sf.ScaleSpec.from_dims(2, 64),
        sf.ScaleSpec.from_dims(3, 96),
    )
    records = [
        sf.RunRecord(
            scale=scale,
            task="t",
            family="f",
            pretrain_seed=0,
            finetune_seed=s,
            metric="m",
            value=scale.params**-0.1 * math.exp(0.01 * (s + k)),
            direction="minimize",
        )
        for k, (scale, size) in enumerate(zip(scales, sizes))
        for s in range(size)
    ]
    return sf.RunSet.from_records(records)


class TestSharedParameterCount:
    """Two scales with one parameter count sit at one abscissa, so a
    resample that draws only them has fewer than 2 distinct scales."""

    @pytest.mark.parametrize("mode", ["hierarchical", "naive"])
    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 1, 4)], ids=["uniform", "ragged"])
    def test_a_resample_of_the_shared_pair_alone_is_redrawn(self, mode, sizes):
        runset = shared_params_runset(sizes)
        pool = _Pool(runset)
        assert pool.n_groups == 4 and np.unique(pool.group_params).size == 3
        cfg = sf.BootstrapConfig(n_replicates=16 * BLOCK, rng_seed=44, mode=mode)
        if mode == "hierarchical":
            width, key, scale = pool.n_groups, pool.group_params, np.arange(pool.n_groups)
        else:
            width, key, scale = pool.v.size, pool.params, pool.code
        first = [sf.substream(44, k).integers(0, width, size=(BLOCK, width)) for k in range(16)]
        degenerate = [k for k, draws in enumerate(first) if _degenerate(key[draws]).any()]
        # rows that draw both scales of the pair and no other
        only_the_pair = [k for k, draws in enumerate(first) if (_degenerate(key[draws]) & ~_degenerate(scale[draws])).any()]
        assert only_the_pair and set(only_the_pair) <= set(degenerate) and len(degenerate) < 16
        band = sf.bootstrap_band(runset, cfg)
        assert (band.replicate_slopes, band.replicate_intercepts) == per_block_band(runset, cfg)

    @pytest.mark.parametrize("mode", ["hierarchical", "naive"])
    def test_scales_that_share_a_float_log_give_a_band_that_is_not_finite(self, mode):
        # 2**50 and 2**50 + 1 are two parameter counts, so no resample is
        # degenerate, but one float64 log: every fit is 0/0, silently
        runset = sf.RunSet.from_records(
            [
                sf.RunRecord(
                    scale=sf.ScaleSpec.from_params(params),
                    task="t",
                    family="f",
                    pretrain_seed=0,
                    finetune_seed=s,
                    metric="m",
                    value=1.0 + s,
                    direction="minimize",
                )
                for params in (2**50, 2**50 + 1)
                for s in range(2)
            ]
        )
        assert np.unique(runset.params).size == 2 and np.unique(np.log(runset.params)).size == 1
        with pytest.raises(DataError, match="is not finite"):
            sf.bootstrap_band(runset, sf.BootstrapConfig(n_replicates=2 * BLOCK, rng_seed=3, mode=mode))


class TestSubstreamSeeds:
    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "two-to-the-64"])
    def test_seed_outside_64_bits_rejected(self, seed):
        # masked to 64 bits, these would alias seeds 2**64 - 1 and 0
        with pytest.raises(DataError, match=r"seed must be in \[0, 2\*\*64\), got "):
            sf.substream(seed, 0)

    def test_largest_seed_accepted(self):
        top = sf.substream(2**64 - 1, 0).integers(0, 2**32, size=4)
        assert not np.array_equal(top, sf.substream(0, 0).integers(0, 2**32, size=4))


def generator_state(rng):
    # the spare 32-bit half counts only while one is pending: integers leaves
    # the last one behind, random_raw does not
    state = rng.bit_generator.state
    state["uinteger"] *= state["has_uint32"]
    return json.dumps(state, default=np.ndarray.tolist, sort_keys=True)


# Around 2**32 numpy switches from 32-bit to 64-bit draws per bound.
STREAM_BOUNDS = [1, 2, 5, 60, 2500, 2**32 - 3, 2**32, 2**32 + 3, 2**40 - 3, 2**40 + 3]


class TestStreamProperty:
    """The within-group draw takes for granted two properties of bounded
    integers on a substream: a scalar bound draws what an array of that bound
    draws, and an array-bound draw may be split into runs of equal bounds.
    A numpy that lays out the stream otherwise fails here, not silently in
    the replicates."""

    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare-32-bit-half"])
    @pytest.mark.parametrize("bound", STREAM_BOUNDS)
    def test_scalar_bound_draws_what_the_array_bound_draws(self, bound, spare):
        a, b = sf.substream(12, 3), sf.substream(12, 3)
        if spare:
            a.integers(0, 3), b.integers(0, 3)
            assert a.bit_generator.state["has_uint32"] == 1
        scalar = a.integers(0, bound, size=257)
        array = b.integers(0, np.full(257, bound))
        assert scalar.dtype == array.dtype
        assert scalar.tolist() == array.tolist()
        assert generator_state(a) == generator_state(b)

    @pytest.mark.parametrize("per_run", ["array", "scalar"])
    def test_array_bound_draw_splits_into_equal_bound_runs(self, per_run):
        runs = [(5, 3), (2**32 + 3, 4), (1, 2), (60, 7), (2**40 + 3, 3), (2, 9), (2500, 11), (2**32 - 3, 5), (2**32, 1)]
        a, b = sf.substream(13, 4), sf.substream(13, 4)
        whole = a.integers(0, np.repeat(*zip(*runs)))
        draw = (lambda h, n: b.integers(0, np.full(n, h))) if per_run == "array" else (lambda h, n: b.integers(0, h, size=n))
        split = np.concatenate([draw(h, n) for h, n in runs])
        assert whole.tolist() == split.tolist()
        assert generator_state(a) == generator_state(b)


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
