"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavy Monte Carlo inputs come from session fixtures shared with
the module tests.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import scalefit as sf
from scalefit.bootstrap import BLOCK, _Pool, _word_draws
from scalefit.cli import run
from scalefit.rng import Substreams

from conftest import TRUE_ALPHA, TRUE_LOG_C, ar32_synth, reduce_blocks


def check(num, name, ok, detail):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_parameter_arithmetic():
    bert = sf.param_count(12, 768)
    sweep = sum(s.params for s in sf.scale_ladder(32, range(1, 9)))
    ratio_sweep = bert / sweep
    ratio_eight = bert / sf.param_count(8, 256)
    ok = (
        bert == 84_934_656
        and sweep == 15_925_248
        and abs(ratio_sweep - 5.33) <= 0.1
        and abs(ratio_eight - 13.5) <= 0.1
    )
    check(
        1,
        "parameter arithmetic",
        ok,
        f"12x768={bert}, sum(AR32 1..8)={sweep}, ratios {ratio_sweep:.3f}/{ratio_eight:.2f}",
    )


def test_criterion_02_noiseless_round_trip():
    start = time.perf_counter()
    runset, _ = ar32_synth(1_000, sigma_fin=0.0)
    fit = sf.fit_line(runset.points())
    holdout = sf.holdout_eval(runset, (1, 6), (7, 8))
    elapsed = time.perf_counter() - start
    ok = (
        abs(fit.alpha - TRUE_ALPHA) <= 1e-9
        and abs(fit.beta - TRUE_LOG_C) <= 1e-9
        and fit.r_squared >= 1 - 1e-12
        and holdout.mre <= 1e-9
        and elapsed < 1.0
    )
    check(
        2,
        "noiseless round trip",
        ok,
        f"d_alpha={abs(fit.alpha - TRUE_ALPHA):.2e}, d_beta={abs(fit.beta - TRUE_LOG_C):.2e}, "
        f"r2={fit.r_squared}, mre={holdout.mre:.2e}, {elapsed * 1000:.0f}ms",
    )


def test_criterion_03_noisy_recovery(sim_noisy_recovery):
    rate = sim_noisy_recovery["pass_rate"]
    check(
        3,
        "noisy recovery",
        rate >= 0.95,
        f"alpha within 5% and log R2 >= 0.97 in {rate:.1%} of {sim_noisy_recovery['trials']} trials",
    )


def test_criterion_04_bootstrap_coverage(sim_slope_coverage):
    cov = sim_slope_coverage["coverage"]
    check(
        4,
        "bootstrap slope-CI coverage",
        cov >= 0.85,
        f"B=500 nominal [2.5,97.5] covered true slope in {cov:.1%} of "
        f"{sim_slope_coverage['trials']} trials",
    )


def test_criterion_05_hierarchical_conservatism(sim_width_conservatism):
    h = sim_width_conservatism["median_hierarchical"]
    n = sim_width_conservatism["median_naive"]
    check(
        5,
        "hierarchical conservatism",
        h > n,
        f"median widths at sigma_pre=3*sigma_fin: hierarchical={h:.5f} > naive={n:.5f}",
    )


def test_criterion_06_holdout_mre(sim_holdout):
    rate = sim_holdout["pass_rate"]
    check(
        6,
        "holdout extrapolation",
        rate >= 0.90,
        f"MRE <= 2.5% in {rate:.1%} of {sim_holdout['trials']} trials "
        f"(worst {sim_holdout['worst_mre']:.4f})",
    )


def test_criterion_07_selection_sign_agreement(sim_selection):
    good = sim_selection["gates_and_sign"]
    trials = sim_selection["trials"]
    check(
        7,
        "selection sign agreement",
        good >= 0.90 * trials and sim_selection["both_gates"] == trials,
        f"gates passed and predicted the +{sim_selection['true_gap']} gap's sign in "
        f"{good}/{trials} trials",
    )


def test_criterion_08_re_sign_convention():
    re = sf.relative_error(90.0, 91.8)
    ok = re < 0 and re == pytest.approx(-0.02, abs=1e-12)
    check(8, "relative-error sign convention", ok, f"re(actual=90, predicted=91.8)={re:.4f}")


def test_criterion_09_early_stopping_trace():
    worked = sf.LossCurve(steps=tuple(range(6)), losses=(1.0, 0.8, 0.79, 0.79, 0.79, 0.79))
    result = sf.early_stop(worked, sf.EarlyStopPolicy(patience=3))
    plateau = sf.LossCurve(
        steps=tuple(range(9)), losses=(3.0, 2.5, 2.5, 2.5, 2.5, 2.5, 2.0, 1.5, 1.4)
    )
    rows = sf.compare_policies(
        plateau, [sf.EarlyStopPolicy(patience=3), sf.EarlyStopPolicy(patience=8)]
    )
    ok = (
        (result.stop_index, result.best_index, result.stopped) == (5, 2, True)
        and rows[0].stopped
        and rows[1].loss_at_best < rows[0].loss_at_best
    )
    check(
        9,
        "early stopping trace",
        ok,
        f"worked example stop={result.stop_index} best={result.best_index}; "
        f"patience 3 best loss {rows[0].loss_at_best} vs patience 8 {rows[1].loss_at_best}",
    )


def test_criterion_10_determinism(tmp_path, capsys):
    runset, _ = ar32_synth(1_010)
    data = tmp_path / "runs.jsonl"
    sf.emit(runset.records, data)

    outputs = []
    svgs = []
    synths = []
    for i in range(2):
        assert run(["bootstrap", "--input", str(data), "--B", "60", "--seed", "4"]) == 0
        outputs.append(capsys.readouterr().out)
        svg_path = tmp_path / f"plot{i}.svg"
        assert (
            run(
                ["plot", "--input", str(data), "--out", str(svg_path), "--band", "--B", "40",
                 "--seed", "4"]
            )
            == 0
        )
        capsys.readouterr()
        svgs.append(svg_path.read_bytes())
        gen = tmp_path / f"gen{i}.jsonl"
        assert (
            run(
                ["synth", "--alpha", "0.08", "--log-c", "3.0", "--sigma-fin", "0.01",
                 "--seed", "11", "--out", str(gen)]
            )
            == 0
        )
        capsys.readouterr()
        synths.append(gen.read_bytes() + (tmp_path / f"gen{i}.jsonl.truth.json").read_bytes())

    # block substreams are schedule-independent: a reversed thread-pool
    # evaluation of the blocks, each drawn and fitted alone, must reproduce
    # the serial coefficients exactly; threads must not share a Substreams
    cfg = sf.BootstrapConfig(n_replicates=48, rng_seed=4)
    serial = sf.bootstrap_band(runset, cfg)
    pool = _Pool(runset)
    n_blocks = -(-48 // BLOCK)
    with ThreadPoolExecutor(max_workers=6) as ex:
        parallel = dict(
            ex.map(
                lambda k: (k, reduce_blocks(pool, cfg.mode, [_word_draws(pool, cfg, range(k, k + 1), Substreams(cfg.rng_seed))])),
                reversed(range(n_blocks)),
            )
        )
    parallel_slopes = tuple(
        np.concatenate([parallel[k][0] for k in range(n_blocks)])[:48].tolist()
    )

    ok = (
        outputs[0] == outputs[1]
        and svgs[0] == svgs[1]
        and synths[0] == synths[1]
        and parallel_slopes == serial.replicate_slopes
    )
    check(
        10,
        "determinism",
        ok,
        f"json {len(outputs[0])}B, svg {len(svgs[0])}B, synth {len(synths[0])}B identical "
        "across reruns; threaded blocks match serial",
    )
