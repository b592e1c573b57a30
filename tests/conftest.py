"""Shared fixtures: synthetic data builders and session-scoped simulations.

The Monte Carlo simulations are expensive enough to run once; both the
module tests and the acceptance suite assert against the same results.
Seed constants are fixed so reruns are bit-identical.
"""

import itertools
import math
import os
import tempfile

import numpy as np
import pytest

import scalefit as sf
from scalefit.bootstrap import (
    BLOCK,
    MAX_REDRAWS,
    BootstrapConfig,
    _degenerate,
    _hierarchical_stats,
    _naive_stats,
    _ols_rows,
    _Pool,
)
from scalefit.errors import DegenerateDataError
from scalefit.rng import Substreams

# The CLI's on-disk table cache (scalefit.cache) is on, as users run it, in a
# temporary directory of the session's own (removed at exit), so no test,
# subprocess or hypothesis example writes under the home directory: CLI tests
# read their inputs through the cache (most are under its size floor, and
# parse), and tests that call ingest parse.  tests/test_cache.py gives each
# of its tests a directory of its own.
_CACHE = tempfile.TemporaryDirectory(prefix="scalefit-cache-")
os.environ["SCALEFIT_CACHE_DIR"] = _CACHE.name

AR32 = tuple(sf.scale_ladder(32, range(1, 9)))
TARGET = sf.ScaleSpec.from_dims(12, 768)  # 84_934_656 params, ~13.5x the 8-layer scale
TRUE_ALPHA = 0.08
TRUE_LOG_C = math.log(20)


def ar32_synth(
    seed,
    sigma_pre=0.0,
    sigma_fin=0.01,
    seeds_per_scale=5,
    direction="minimize",
    alpha=TRUE_ALPHA,
    log_c=TRUE_LOG_C,
    scales=AR32,
    **kwargs,
):
    spec = sf.SynthSpec(
        true_alpha=alpha,
        true_log_c=log_c,
        scales=tuple(scales),
        seeds_per_scale=seeds_per_scale,
        sigma_pre=sigma_pre,
        sigma_fin=sigma_fin,
        rng_seed=seed,
        direction=direction,
        **kwargs,
    )
    return sf.generate(spec)


def reduce_blocks(pool, mode, blocks):
    """Per-row slopes and intercepts of consecutive blocks' draws (each a
    :func:`_block_draws` result), fitted in one pass: the per-block reference
    that the band's rows must equal bit for bit."""
    draws = [np.concatenate(parts) for parts in zip(*blocks)]
    stats = _hierarchical_stats if mode == "hierarchical" else _naive_stats
    # Rows past n_replicates may stay degenerate; callers cut them off.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ols_rows(*stats(pool, *draws))


# The per-block reference of the library's draws: each block drawn by
# ``Generator.integers`` on its own substream, degenerate rows redrawn in row
# order, then the within-group draw.  The library makes the same integers
# from the substreams' raw words.


def _within_draws(pool: _Pool, rng: np.random.Generator, groups: np.ndarray) -> np.ndarray:
    """Positions in ``pool.v`` of one within-group resample per drawn group.

    Drawn group ``groups[r, j]`` contributes its own size of positions, drawn
    with replacement from its members; segments follow row-major order.
    """
    counts = pool.sizes[groups].ravel()
    return rng.integers(0, np.repeat(counts, counts)) + np.repeat(pool.start[groups].ravel(), counts)


def _block_draws(pool: _Pool, cfg: BootstrapConfig, block: int, streams: Substreams) -> tuple[np.ndarray, ...]:
    """The resamples of replicates ``block*BLOCK`` to ``block*BLOCK + BLOCK - 1``.

    Returns what :func:`_hierarchical_stats` or :func:`_naive_stats` reduce:
    ``(groups, positions)`` in the hierarchical mode, ``(idx,)`` in the
    naive one; the last array is the block's index array.  The whole block
    is drawn, and redrawn, from substream ``(rng_seed, block)``, opened on
    ``streams``, whatever ``n_replicates`` is, so a shorter run is a prefix
    of a longer one.  Only replicates below ``n_replicates`` must end up
    non-degenerate.
    """
    rng = streams.open(block)
    hierarchical = cfg.mode == "hierarchical"
    width, key = (pool.n_groups, pool.group_params) if hierarchical else (pool.v.size, pool.params)
    draws = rng.integers(0, width, size=(BLOCK, width))
    bad = _degenerate(key[draws])
    for _ in range(MAX_REDRAWS - 1):
        rows = np.flatnonzero(bad)
        if rows.size == 0:
            break
        draws[rows] = rng.integers(0, width, size=(rows.size, width))
        bad[rows] = _degenerate(key[draws[rows]])
    kept = bad[: cfg.n_replicates - block * BLOCK]
    if kept.any():
        raise DegenerateDataError(
            f"replicate {block * BLOCK + int(np.argmax(kept))}: no resample with 2 distinct "
            f"scales after {MAX_REDRAWS} consecutive redraws"
        )
    return (draws, _within_draws(pool, rng, draws)) if hierarchical else (draws,)


def plot_runset_per_point(runset, fit=None, band=None, heldout_layers=None, title=None):
    """The per-point reference of :func:`scalefit.svg.plot_runset`: each
    record's (params, value) tuple appended to its pretrain seed's list, or
    to the held-out list, in run set order."""
    held = runset.within_layers(*heldout_layers) if heldout_layers else [False] * len(runset)
    by_seed, held_pts = {}, []
    points = zip(runset.params.tolist(), runset.values.tolist())
    for pt, seed, h in zip(points, runset.seeds[:, 0].tolist(), held):
        if h:
            held_pts.append(pt)
        else:
            by_seed.setdefault(seed, []).append(pt)
    groups = [sf.ScatterGroup(label=f"pretrain seed {s}", points=tuple(pts)) for s, pts in sorted(by_seed.items())]
    if held_pts:
        groups.append(sf.ScatterGroup(label="held out", points=tuple(held_pts), held_out=True))
    title = title if title is not None else f"{runset.task}/{runset.family}"
    return sf.PlotSpec(title, "parameters", runset.metric, tuple(groups), fit, band)


def render_plot_per_point(spec):
    """The per-point reference of :func:`scalefit.svg.render_plot`: every
    coordinate read, checked and ranged as a Python float, and each marker
    placed by ``_Axes``; the bytes the library must write."""
    from scalefit import svg

    xs = [float(x) for g in spec.groups for x, _ in g.points.tolist()]
    ys = [float(y) for g in spec.groups for _, y in g.points.tolist()]
    if spec.band is not None:
        xs += [float(x) for x, _, _ in spec.band.point_band]
        ys += [float(v) for _, lo, hi in spec.band.point_band for v in (lo, hi)]
    if not xs:
        raise sf.DataError("plot needs at least one series with data")
    if not all(0.0 < v < math.inf for v in xs + ys):
        raise sf.DataError("log-log plot requires finite positive coordinates")
    if min(xs) < svg.sys.float_info.min or min(ys) < svg.sys.float_info.min:
        raise sf.DataError(f"log-log plot requires coordinates of at least {svg.sys.float_info.min!r}")
    if spec.fit is not None:
        ys.extend(sf.predict_at(spec.fit, v) for v in (min(xs), max(xs)))
    ax = svg._Axes(svg._log_range(xs), svg._log_range(ys))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="720" height="540" viewBox="0 0 720 540">',
        '<rect x="0" y="0" width="720" height="540" fill="#ffffff"/>',
    ]
    x0, x1 = svg._MARGIN_L, svg._WIDTH - svg._MARGIN_R
    y0, y1 = svg._MARGIN_T, svg._HEIGHT - svg._MARGIN_B
    for value, label in svg._ticks(ax.lx0, ax.lx1):
        px = ax.px(value)
        out += [svg._line(px, y0, px, y1, "#dddddd", "1"), svg._text(px, y1 + 18, 11, label)]
    for value, label in svg._ticks(ax.ly0, ax.ly1):
        py = ax.py(value)
        out += [svg._line(x0, py, x1, py, "#dddddd", "1"), svg._text(x0 - 6, py + 4, 11, label, "end")]
    out.append('<rect x="80.00" y="48.00" width="490.00" height="428.00" fill="none" stroke="#333333" stroke-width="1"/>')
    if spec.band is not None and spec.band.point_band:
        rows = spec.band.point_band
        verts = [(ax.px(x), ax.py(hi)) for x, _, hi in rows] + [(ax.px(x), ax.py(lo)) for x, lo, _ in reversed(rows)]
        pts = " ".join(f"{svg._fmt(vx)},{svg._fmt(vy)}" for vx, vy in verts)
        out.append(f'<polygon points="{pts}" fill="#1f77b4" fill-opacity="0.25"/>')
    if spec.fit is not None:
        ends = [(ax.px(x), ax.py(sf.predict_at(spec.fit, x))) for x in (min(xs), max(xs))]
        out.append(svg._line(*ends[0], *ends[1], "#d62728", "1.5"))
    for color, g in zip(itertools.cycle(svg._PALETTE), spec.groups):
        for x, y in g.points.tolist():
            cx, cy = svg._fmt(ax.px(x)), svg._fmt(ax.py(y))
            if g.held_out:
                out.append(f'<circle cx="{cx}" cy="{cy}" r="4.00" fill="none" stroke="{color}" stroke-width="1.5"/>')
            else:
                out.append(f'<circle cx="{cx}" cy="{cy}" r="3.00" fill="{color}"/>')
    for gi, (color, g) in enumerate(zip(itertools.cycle(svg._PALETTE), spec.groups)):
        fill = "none" if g.held_out else color
        out.append(f'<rect x="582.00" y="{svg._fmt(56 + 16 * gi)}" width="10" height="10" fill="{fill}" stroke="{color}"/>')
        out.append(svg._text(598, 56 + 16 * gi + 9, 11, g.label, anchor=None))
    if spec.title:
        out.append(svg._text(360, 32, 15, spec.title))
    out.append(svg._text(325, 524, 13, spec.x_label))
    out.append(
        '<text x="18" y="262.00" font-size="13" text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 18 262.00)">{svg._esc(spec.y_label)}</text>'
    )
    return "\n".join(out + ["</svg>"]) + "\n"


def early_stop_replay(curve, policy):
    """An oracle for :func:`scalefit.early_stop` that shares none of its
    loop: one numpy pass.  ``best`` before each evaluation is the running
    minimum of the losses before it, so the counter is reset by the
    evaluations below it by more than min_decrease, and the stop is
    ``patience`` evaluations after the first reset (or the start) that the
    next one does not follow within ``patience``."""
    losses = np.array(curve.losses, dtype=float)
    lowest = np.minimum.accumulate(losses)
    resets = np.flatnonzero(losses[1:] < lowest[:-1] - policy.min_decrease) + 1
    starts = np.concatenate(([0], resets))
    long = np.flatnonzero(np.diff(starts, append=losses.size) > policy.patience)
    stopped = bool(long.size)
    stop = int(starts[long[0]]) + policy.patience if stopped else losses.size - 1
    best = int(np.argmin(losses[: stop + 1]))
    return sf.EarlyStopResult(stop_index=stop, best_index=best, stopped=stopped, best_loss=curve.losses[best])


def chunk_readers(monkeypatch):
    """A list that gets (first line, "parsed" or "csv") of each body chunk
    that open_csv hands to _body_chunks and yields: read by np.loadtxt, or
    by csv.reader.  A body read from a header that spans lines goes
    straight to csv.reader and is not recorded."""
    seen = []
    body_chunks = sf.records._body_chunks

    def recorded(*args):
        for where, rows in body_chunks(*args):
            seen.append((int(where[0]), "parsed" if isinstance(rows, sf.records.ParsedChunk) else "csv"))
            yield where, rows

    monkeypatch.setattr(sf.records, "_body_chunks", recorded)
    return seen


_MASK64 = (1 << 64) - 1


def philox_words(seed, stream, n):
    """The first ``n`` raw 64-bit words of substream ``(seed, stream)``, without numpy.

    Philox4x64-10 (Salmon et al., SC 2011) under the key ``[stream, seed]``,
    low word first, on a 256-bit counter whose first block is 1: each
    counter value gives four words, in order.
    """
    words, counter = [], 0
    while len(words) < n:
        counter += 1
        x = [counter >> shift & _MASK64 for shift in (0, 64, 128, 192)]
        k0, k1 = stream, seed
        for _ in range(10):
            p0, p1 = 0xD2E7470EE14C6C93 * x[0], 0xCA5A826395121157 * x[2]
            x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _MASK64, (p0 >> 64) ^ x[3] ^ k1, p0 & _MASK64]
            k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _MASK64, (k1 + 0xBB67AE8584CAA73B) & _MASK64
        words += x
    return words[:n]


@pytest.fixture(scope="session")
def sim_noisy_recovery():
    """200 fits on noisy AR-32 data; fraction recovering alpha and R^2."""
    trials = 200
    ok = 0
    for t in range(trials):
        runset, _ = ar32_synth(60_000 + t)
        fit = sf.fit_line(runset.points())
        ok += (abs(fit.alpha - TRUE_ALPHA) <= 0.05 * TRUE_ALPHA) and (fit.r_squared >= 0.97)
    return {"trials": trials, "pass_rate": ok / trials}


@pytest.fixture(scope="session")
def sim_slope_coverage():
    """Hierarchical B=500 slope-CI coverage of the true slope, 200 trials."""
    trials = 200
    hits = 0
    for t in range(trials):
        runset, _ = ar32_synth(40_000 + t)
        cfg = sf.BootstrapConfig(n_replicates=500, rng_seed=50_000 + t)
        lo, hi = sf.bootstrap_band(runset, cfg).slope_ci
        hits += lo <= TRUE_ALPHA <= hi
    return {"trials": trials, "coverage": hits / trials}


def _paired_widths(sigma_pre, n_trials=100, n_replicates=400):
    widths_h = []
    widths_n = []
    for t in range(n_trials):
        runset, _ = ar32_synth(10_000 + t, sigma_pre=sigma_pre)
        h = sf.bootstrap_band(
            runset, sf.BootstrapConfig(n_replicates=n_replicates, rng_seed=20_000 + t)
        )
        n = sf.bootstrap_band(
            runset,
            sf.BootstrapConfig(n_replicates=n_replicates, rng_seed=30_000 + t, mode="naive"),
        )
        widths_h.append(h.slope_ci[1] - h.slope_ci[0])
        widths_n.append(n.slope_ci[1] - n.slope_ci[0])
    return {
        "median_hierarchical": float(np.median(widths_h)),
        "median_naive": float(np.median(widths_n)),
        "trials": n_trials,
    }


@pytest.fixture(scope="session")
def sim_width_conservatism():
    """Paired slope-CI widths when between-scale noise dominates (3x)."""
    return _paired_widths(sigma_pre=0.03)


@pytest.fixture(scope="session")
def sim_width_equal_noise():
    """Paired slope-CI widths with no between-scale noise at all."""
    return _paired_widths(sigma_pre=0.0)


@pytest.fixture(scope="session")
def sim_holdout():
    """1-6 -> 7-8 layer holdout MRE over 100 noisy trials."""
    trials = 100
    ok = 0
    worst = 0.0
    for t in range(trials):
        runset, _ = ar32_synth(70_000 + t)
        report = sf.holdout_eval(runset, (1, 6), (7, 8))
        worst = max(worst, report.mre)
        ok += report.mre <= 0.025
    return {"trials": trials, "pass_rate": ok / trials, "worst_mre": worst}


@pytest.fixture(scope="session")
def sim_extrapolation_coverage():
    """Band at the ~13.5x target covers the true law value, 100 trials."""
    trials = 100
    hits = 0
    for t in range(trials):
        runset, truth = ar32_synth(80_000 + t)
        cfg = sf.BootstrapConfig(n_replicates=400, rng_seed=90_000 + t)
        report = sf.extrapolate(runset, TARGET, cfg)
        lo, hi = report.targets[0].band
        hits += lo <= truth.value_at(TARGET.params) <= hi
    return {"trials": trials, "coverage": hits / trials}


@pytest.fixture(scope="session")
def sim_selection():
    """Two parallel-law families, true gap +1.5 at the target, 100 trials."""
    trials = 100
    actual_a, actual_b = 85.0, 86.5
    log_c_a = math.log(actual_a) - TRUE_ALPHA * math.log(TARGET.params)
    log_c_b = math.log(actual_b) - TRUE_ALPHA * math.log(TARGET.params)
    both_gates = 0
    gates_and_sign = 0
    for t in range(trials):
        runset_a, _ = ar32_synth(
            100_000 + t, direction="maximize", log_c=log_c_a, family="fam_a"
        )
        runset_b, _ = ar32_synth(
            200_000 + t, direction="maximize", log_c=log_c_b, family="fam_b"
        )
        cfg = sf.BootstrapConfig(n_replicates=100, rng_seed=300_000 + t)
        sel = sf.select_model(
            runset_a, runset_b, TARGET, cfg, actual_a=actual_a, actual_b=actual_b
        )
        both_gates += sel.reliable
        gates_and_sign += sel.reliable and sel.sign_agreement
    return {
        "trials": trials,
        "both_gates": both_gates,
        "gates_and_sign": gates_and_sign,
        "true_gap": actual_b - actual_a,
    }


@pytest.fixture(scope="session")
def sim_undertrained():
    """A +10% loss inflation at the held-out scale gets flagged, 100 trials."""
    trials = 100
    flagged = 0
    for t in range(trials):
        runset, truth = ar32_synth(400_000 + t)
        observed = truth.value_at(TARGET.params) * 1.10
        cfg = sf.BootstrapConfig(n_replicates=200, rng_seed=500_000 + t)
        verdict = sf.flag_undertrained(runset, TARGET, observed, cfg)
        flagged += verdict.flag == "suspect_undertrained"
    return {"trials": trials, "flag_rate": flagged / trials}
