"""Workload inputs, command mixes and output checks for the scalefit benchmark.

Every input is a pure function of the workload seed: records come from
``scalefit.synth.generate`` and are written with ``scalefit.records.emit``;
the bulk loss curve comes from a numpy generator keyed by the same seed.
The program only ever sees the written files.  Each command carries a check
that knows the synthetic truth the inputs were drawn from.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from scalefit import records, synth

# Absolute tolerance on a fitted slope against the generating alpha.  The
# slope's standard error is at most ~0.0025 on these inputs (ladder: 8 scales
# x 5 seeds, sigma_pre=0.01, sigma_fin=0.02), so this is about six of them.
ALPHA_TOL = 0.015
# Mean relative error allowed on bulk's depth holdout (noise is ~1-2%).
HOLDOUT_MRE_TOL = 0.05
ASPECT_RATIO = 32
LOG_C = 2.0
SIGMA_PRE = 0.01
SIGMA_FIN = 0.02

Check = Callable[[dict], list]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the mix and the check its report must pass."""

    kind: str
    argv: tuple
    check: Check


@dataclass(frozen=True)
class Workload:
    """Inputs and command mix of one workload.

    ``premises`` maps the traced run's per-layer metrics and facts (see
    ``spans.layer_metrics``) to the reasons the workload was chosen that no
    longer hold.  A later change to the program may legitimately break one
    (a much faster bootstrap stops dominating ``ladder``); the run then
    reports it instead of presenting the workload as what it no longer is.
    """

    name: str
    size: str
    commands: list
    write_inputs: Callable[[], None]
    premises: Callable[[dict, dict], list]


def _alpha(fit: dict, truth: float, where: str) -> list:
    a = fit["alpha"]
    if abs(a - truth) <= ALPHA_TOL:
        return []
    return [f"{where}: alpha {a!r} is not within {ALPHA_TOL} of the true {truth!r}"]


def _brackets(interval, point: float, where: str) -> list:
    lo, hi = interval
    if lo <= point <= hi:
        return []
    return [f"{where}: interval [{lo!r}, {hi!r}] does not bracket {point!r}"]


def _fit_check(truth: float) -> Check:
    return lambda rep: _alpha(rep["results"]["fit"], truth, "fit")


def _bootstrap_check(truth: float) -> Check:
    def check(rep):
        fit, band = rep["results"]["fit"], rep["results"]["band"]
        return _alpha(fit, truth, "fit") + _brackets(band["slope_ci"], fit["alpha"], "slope_ci")

    return check


def _predict_check(truth: float) -> Check:
    def check(rep):
        res = rep["results"]
        target = res["targets"][0]
        return _alpha(res["fit"], truth, "fit") + _brackets(
            target["band"], target["predicted"], "target band"
        )

    return check


def _plot_check(path: str, groups: int) -> Check:
    def check(rep):
        res = rep["results"]
        data = Path(path).read_bytes()
        problems = []
        if hashlib.sha256(data).hexdigest() != res["sha256"]:
            problems.append("reported sha256 does not match the written SVG")
        if not data.startswith(b"<?xml") or b"<svg" not in data[:200]:
            problems.append("output is not an SVG document")
        if res["groups"] != groups:
            problems.append(f"{res['groups']} marker groups, expected {groups}")
        return problems

    return check


def _ladder_spec(family: str, alpha: float, seed: int, index: int) -> synth.SynthSpec:
    return synth.SynthSpec(
        true_alpha=alpha,
        true_log_c=LOG_C,
        scales=tuple(records.scale_ladder(ASPECT_RATIO, range(1, 9))),
        seeds_per_scale=5,
        sigma_pre=SIGMA_PRE,
        sigma_fin=SIGMA_FIN,
        rng_seed=2 * seed + index,
        task="mnli",
        family=family,
        metric="eval_loss",
    )


def ladder(seed: int) -> Workload:
    """Two families x AR-32 layers 1-8 x 5 seeds; hierarchical B=1000 mix."""
    alphas = {"mlm": -0.07, "clm": -0.09}
    target = records.ScaleSpec.from_dims(12, ASPECT_RATIO * 12)
    held = records.ScaleSpec.from_dims(8, ASPECT_RATIO * 8)
    observed = 3.0 * math.exp(LOG_C + alphas["mlm"] * math.log(held.params))

    def write_inputs():
        recs = []
        for index, (family, alpha) in enumerate(alphas.items()):
            runset, _ = synth.generate(_ladder_spec(family, alpha, seed, index))
            recs.extend(runset.records)
        records.emit(recs, "ladder.jsonl")

    def select_check(rep):
        res = rep["results"]
        problems = _alpha(res["fit_a"], alphas["mlm"], "fit_a") + _alpha(
            res["fit_b"], alphas["clm"], "fit_b"
        )
        problems += _brackets(res["band_a"], res["predicted_a"], "band_a")
        problems += _brackets(res["band_b"], res["predicted_b"], "band_b")
        # clm decays faster from the same intercept, so it predicts the lower loss.
        if not res["predicted_gap"] < 0:
            problems.append(f"predicted_gap {res['predicted_gap']!r} has the wrong sign")
        return problems

    def outlier_check(rep):
        res = rep["results"]
        problems = _brackets(res["band"], res["predicted"], "band")
        if res["flag"] != "suspect_undertrained":
            problems.append(f"3x the true loss was flagged {res['flag']!r}")
        return problems

    boot = ("--B", "1000", "--mode", "hierarchical", "--seed", str(seed))
    inp = ("--input", "ladder.jsonl")
    tgt = ("--target-layers", "12", "--target-hidden", str(target.hidden))
    commands = [
        Command("fit", ("fit", *inp, "--family", "mlm"), _fit_check(alphas["mlm"])),
        Command(
            "bootstrap",
            ("bootstrap", *inp, "--family", "mlm", *boot),
            _bootstrap_check(alphas["mlm"]),
        ),
        Command(
            "predict",
            ("predict", *inp, "--family", "clm", *tgt, *boot),
            _predict_check(alphas["clm"]),
        ),
        Command(
            "select",
            ("select", *inp, "--family-a", "mlm", "--family-b", "clm", *tgt, *boot),
            select_check,
        ),
        Command(
            "fit-outlier",
            (
                "diagnose", "fit-outlier", *inp, "--family", "mlm",
                "--holdout-layers", "8", "--observed", repr(observed), *boot,
            ),
            outlier_check,
        ),
        Command(
            "plot-band",
            ("plot", *inp, "--family", "mlm", "--out", "ladder.svg", "--band", *boot),
            _plot_check("ladder.svg", groups=1),
        ),
    ]
    def premises(metrics, facts):
        share = metrics["bootstrap.share"]
        return [] if share > 0.5 else [f"bootstrap.share {share:.3f} is not the majority"]

    size = "80 records (2 families x 8 scales x 5 seeds)"
    return Workload("ladder", size, commands, write_inputs, premises)


BULK_LAYERS = 40
BULK_SEEDS = 2500
CURVE_POINTS = 200_000
PATIENCES = (5, 50, 500, 5000)
BASELINE_LAYERS = 48


def _curve_losses(seed: int) -> np.ndarray:
    # A decaying loss with multiplicative noise, so longer patience finds
    # later minima.
    k = np.arange(1, CURVE_POINTS + 1, dtype=float)
    noise = np.random.default_rng([seed, 1]).normal(0.0, 0.02, size=CURVE_POINTS)
    return 2.0 + 5.0 * k**-0.5 * np.exp(noise)


def expected_stop(losses: np.ndarray, patience: int) -> tuple:
    """(stop_index, best_index, stopped) of a zero-min-decrease policy.

    Reference computed without scalefit: with min_decrease 0 an evaluation
    qualifies iff it sets a new strict minimum, so the patience counter at
    step i is i minus the last such step.
    """
    idx = np.arange(losses.size)
    improved = np.ones(losses.size, dtype=bool)
    improved[1:] = losses[1:] < np.minimum.accumulate(losses)[:-1]
    last = np.maximum.accumulate(np.where(improved, idx, 0))
    hits = np.flatnonzero(idx - last >= patience)
    stop = int(hits[0]) if hits.size else losses.size - 1
    return stop, int(last[stop]), bool(hits.size)


def bulk(seed: int) -> Workload:
    """100k records written as JSONL and CSV, plus a 200k-point loss curve."""
    alpha = -0.07
    scales = records.scale_ladder(ASPECT_RATIO, range(1, BULK_LAYERS + 1))
    baseline = records.ScaleSpec.from_dims(BASELINE_LAYERS, ASPECT_RATIO * BASELINE_LAYERS)
    total_params = sum(s.params for s in scales)
    losses = _curve_losses(seed)

    def write_inputs():
        spec = synth.SynthSpec(
            true_alpha=alpha,
            true_log_c=LOG_C,
            scales=tuple(scales),
            seeds_per_scale=BULK_SEEDS,
            sigma_pre=SIGMA_PRE,
            sigma_fin=SIGMA_FIN,
            rng_seed=seed,
        )
        runset, _ = synth.generate(spec)
        records.emit(runset.records, "bulk.jsonl")
        records.emit(runset.records, "bulk.csv")
        with open("curve.csv", "w", encoding="utf-8") as fh:
            fh.write("step,eval_loss\n")
            fh.write("".join(f"{10 * (i + 1)},{v!r}\n" for i, v in enumerate(losses.tolist())))

    def holdout_check(rep):
        res = rep["results"]
        problems = _alpha(res["fit"], alpha, "fit")
        if len(res["targets"]) != 10:
            problems.append(f"{len(res['targets'])} test scales, expected 10")
        if not res["mre"] <= HOLDOUT_MRE_TOL:
            problems.append(f"holdout MRE {res['mre']!r} exceeds {HOLDOUT_MRE_TOL}")
        return problems

    def flops_check(rep):
        res = rep["results"]
        problems = []
        if len(res["scales"]) != BULK_LAYERS or res["total_params"] != total_params:
            problems.append("scale list or total_params disagrees with the written ladder")
        expected = baseline.params / total_params
        if abs(res["savings_ratio"] - expected) > 1e-12 * expected:
            problems.append(f"savings_ratio {res['savings_ratio']!r}, expected {expected!r}")
        return problems

    def earlystop_check(rep):
        problems = []
        rows = rep["results"]["policies"]
        if [r["policy"]["patience"] for r in rows] != list(PATIENCES):
            return ["policies missing or out of order"]
        for row in rows:
            p = row["policy"]["patience"]
            stop, best, stopped = expected_stop(losses, p)
            got = (row["stop_index"], row["best_index"], row["stopped"])
            if got != (stop, best, stopped) or row["loss_at_best"] != float(losses[best]):
                problems.append(f"patience {p}: got {got}, expected {(stop, best, stopped)}")
        return problems

    commands = [
        Command("fit", ("fit", "--input", "bulk.jsonl"), _fit_check(alpha)),
        Command(
            "fit-depth-linear",
            ("fit", "--input", "bulk.csv", "--min-depth", "4", "--r2-space", "linear"),
            _fit_check(alpha),
        ),
        Command(
            "holdout",
            ("holdout", "--input", "bulk.jsonl", "--train-layers", "1-30", "--test-layers", "31-40"),
            holdout_check,
        ),
        Command(
            "flops",
            (
                "flops", "--input", "bulk.csv", "--baseline-layers", str(BASELINE_LAYERS),
                "--baseline-hidden", str(baseline.hidden),
            ),
            flops_check,
        ),
        Command("plot", ("plot", "--input", "bulk.jsonl", "--out", "bulk.svg"), _plot_check("bulk.svg", 1)),
        Command(
            "earlystop",
            ("diagnose", "earlystop", "--curve", "curve.csv", "--patience", *map(str, PATIENCES)),
            earlystop_check,
        ),
    ]
    size = (
        f"{BULK_LAYERS * BULK_SEEDS} records ({BULK_LAYERS} scales x {BULK_SEEDS} seeds) "
        f"as JSONL and CSV, {CURVE_POINTS}-point curve"
    )

    def premises(metrics, facts):
        broken = []
        if not metrics["records.share"] > 0.5:
            broken.append(f"records.share {metrics['records.share']:.3f} is not the majority")
        if metrics["bootstrap.band.calls"] != 0:
            broken.append("the bootstrap was called")
        return broken

    return Workload("bulk", size, commands, write_inputs, premises)


RAGGED_SCALES = 24
RAGGED_MIN_SEEDS, RAGGED_MAX_SEEDS = 2, 60


def ragged(seed: int) -> Workload:
    """24 scales with 2-60 seeds each, arranged by the seed; B=2000 mix."""
    alpha = 0.05
    scales = records.scale_ladder(ASPECT_RATIO, range(1, RAGGED_SCALES + 1))
    # The seed permutes a fixed set of sizes spread over 2-60, so which scale
    # is thin varies with the seed while the record count (744), and with it
    # the cost of a command, does not.
    spread = np.rint(np.linspace(RAGGED_MIN_SEEDS, RAGGED_MAX_SEEDS, RAGGED_SCALES)).astype(int)
    sizes = np.random.default_rng([seed, 2]).permutation(spread)
    keep = {s.params: int(n) for s, n in zip(scales, sizes)}

    def write_inputs():
        spec = synth.SynthSpec(
            true_alpha=alpha,
            true_log_c=LOG_C,
            scales=tuple(scales),
            seeds_per_scale=RAGGED_MAX_SEEDS,
            sigma_pre=SIGMA_PRE,
            sigma_fin=SIGMA_FIN,
            rng_seed=seed,
            direction="maximize",
            metric="accuracy",
        )
        runset, _ = synth.generate(spec)
        kept = [r for r in runset.records if r.finetune_seed < keep[r.scale.params]]
        records.emit(kept, "ragged.jsonl")

    boot = ("--B", "2000", "--seed", str(seed))
    inp = ("--input", "ragged.jsonl")
    commands = [
        Command(
            "bootstrap",
            ("bootstrap", *inp, "--mode", "hierarchical", *boot),
            _bootstrap_check(alpha),
        ),
        Command(
            "bootstrap-naive",
            ("bootstrap", *inp, "--mode", "naive", *boot),
            _bootstrap_check(alpha),
        ),
        Command(
            "predict-naive",
            ("predict", *inp, "--mode", "naive", "--target-layers", "32", "--target-hidden", "1024", *boot),
            _predict_check(alpha),
        ),
    ]
    size = f"{int(sizes.sum())} records ({RAGGED_SCALES} scales x {sizes.min()}-{sizes.max()} seeds)"

    def premises(metrics, facts):
        broken = []
        if len(facts["group_sizes"]) < 2:
            broken.append(f"the bootstrap saw uniform groups: {sorted(facts['group_sizes'])}")
        if facts["band_modes"] != {"hierarchical", "naive"}:
            broken.append(f"bootstrap modes run: {sorted(facts['band_modes'])}")
        return broken

    return Workload("ragged", size, commands, write_inputs, premises)


WORKLOADS = {"ladder": ladder, "bulk": bulk, "ragged": ragged}
