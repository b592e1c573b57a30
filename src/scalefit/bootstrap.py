"""Bootstrap confidence bands for power-law fits.

Two resampling schemes are provided.  The hierarchical scheme draws the M
scale groups with replacement and then, within each drawn group, that
group's own number of records with replacement; it captures between-scale
variance (e.g. pretraining seeds) on top of per-run variance and yields
noticeably more conservative intervals when between-scale variance
dominates.  The naive scheme ignores the group structure and draws all
M*T pooled points with replacement.

Replicates are computed in fixed blocks of ``BLOCK``.  Block k consumes its
own counter-based random substream derived from (rng_seed, k): its
resamples are drawn as one index array and fitted by one vectorized least
squares over per-group counts and sums.  Results are therefore
bit-identical however the blocks are scheduled, and because ``BLOCK`` does
not depend on the replicate count, a run with B replicates is a prefix of
any run with more.  Resamples that collapse to fewer than two distinct
scales are redrawn, in row order, from the block's substream; a kept
replicate that stays degenerate for ``MAX_REDRAWS`` consecutive draws
aborts the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateDataError
from .records import RunSet
from .rng import substream

# Replicates per random substream and per vectorized fit.  Fixed, so that
# the replicate stream does not depend on the replicate count.
BLOCK = 32
# Consecutive draws a kept replicate may take before a degenerate resample
# aborts the run.
MAX_REDRAWS = 100


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, percentile pair, resampling mode, and seed."""

    n_replicates: int = 1000
    lo_pct: float = 2.5
    hi_pct: float = 97.5
    mode: str = "hierarchical"
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise DataError(f"n_replicates must be >= 1, got {self.n_replicates}")
        if not (0.0 <= self.lo_pct < self.hi_pct <= 100.0):
            raise DataError(
                f"percentiles must satisfy 0 <= lo < hi <= 100, got ({self.lo_pct}, {self.hi_pct})"
            )
        if self.mode not in ("hierarchical", "naive"):
            raise DataError(f"unknown bootstrap mode {self.mode!r}")


@dataclass(frozen=True)
class BootstrapBand:
    """Percentile intervals for the slope, intercept, and fitted line."""

    slope_ci: tuple[float, float]
    intercept_ci: tuple[float, float]
    point_band: tuple[tuple[float, float, float], ...]
    replicates_used: int
    replicate_slopes: tuple[float, ...]
    replicate_intercepts: tuple[float, ...]
    lo_pct: float
    hi_pct: float

    def interval_at(self, x: float) -> tuple[float, float]:
        """Percentile interval of the per-replicate predictions at x."""
        if not (x > 0 and math.isfinite(x)):
            raise DataError("x must be positive and finite")
        slopes = np.asarray(self.replicate_slopes)
        intercepts = np.asarray(self.replicate_intercepts)
        with np.errstate(over="ignore", invalid="ignore"):
            preds = np.exp(intercepts + slopes * math.log(x))
            lo, hi = np.percentile(preds, (self.lo_pct, self.hi_pct)).tolist()
        _check_finite((x,), [lo], [hi])
        return lo, hi


def _check_finite(xs: Sequence[float], lo: Sequence[float], hi: Sequence[float]) -> None:
    """Refuse band edges that overflowed, naming the first abscissa affected."""
    for x, a, b in zip(xs, lo, hi):
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"bootstrap band at x={x:g} is not finite: the law overflows float64")


class _Pool:
    """Log-values of one run set laid out group by group, with group tables.

    Scale group k owns positions ``start[k] : start[k] + sizes[k]`` of ``v``;
    every record in a group shares the group's ``u = ln N``, so a resample
    needs only its per-group counts and sums of ``v``.
    """

    def __init__(self, runset: RunSet):
        groups = runset.scale_groups()
        values = np.array([r.value for r in runset.records], dtype=float)
        self.n_groups = len(groups)
        self.sizes = np.array([len(g) for g in groups], dtype=np.intp)
        self.start = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.v = np.log(values[np.concatenate(groups)])
        self.code = np.repeat(np.arange(self.n_groups), self.sizes)
        self.group_params = np.array([s.params for s in runset.scales], dtype=float)
        self.group_u = np.log(self.group_params)
        self.params = self.group_params[self.code]


def _degenerate(params: np.ndarray) -> np.ndarray:
    """Rows of drawn parameter counts with fewer than 2 distinct values."""
    return (params == params[:, :1]).all(axis=1)


def _within_draws(pool: _Pool, rng: np.random.Generator, groups: np.ndarray) -> np.ndarray:
    """Positions in ``pool.v`` of one within-group resample per drawn group.

    Drawn group ``groups[r, j]`` contributes its own size of positions, drawn
    with replacement from its members; segments follow row-major order.
    """
    counts = pool.sizes[groups].ravel()
    return rng.integers(0, np.repeat(counts, counts)) + np.repeat(pool.start[groups].ravel(), counts)


def _hierarchical_stats(pool: _Pool, groups: np.ndarray, positions: np.ndarray):
    """(u, counts, sums of v) per drawn group of a ``(rows, M)`` scale draw."""
    counts = pool.sizes[groups]
    offsets = np.concatenate(([0], np.cumsum(counts.ravel())[:-1]))
    sums = np.add.reduceat(pool.v.take(positions), offsets).reshape(counts.shape)
    return pool.group_u[groups], counts, sums


def _naive_stats(pool: _Pool, idx: np.ndarray):
    """(u, counts, sums of v) per scale group of a ``(rows, n)`` pooled draw."""
    rows = idx.shape[0]
    bins = pool.code[idx]
    bins += pool.n_groups * np.arange(rows)[:, None]
    shape = (rows, pool.n_groups)
    counts = np.bincount(bins.ravel(), minlength=rows * pool.n_groups).reshape(shape)
    sums = np.bincount(bins.ravel(), weights=pool.v[idx].ravel(), minlength=rows * pool.n_groups)
    return pool.group_u, counts, sums.reshape(shape)


def _ols_rows(u: np.ndarray, counts: np.ndarray, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row closed-form OLS of v on u from grouped counts and sums of v.

    Row r fits ``counts[r, j]`` points at abscissa ``u[r, j]`` whose ordinates
    sum to ``sums[r, j]``; the centered form matches ``_ols_log`` on the
    expanded points up to rounding.
    """
    n = counts.sum(axis=1)
    um = (counts * u).sum(axis=1) / n
    vm = sums.sum(axis=1) / n
    du = u - um[:, None]
    sxy = (du * (sums - counts * vm[:, None])).sum(axis=1)
    slopes = sxy / (counts * du * du).sum(axis=1)
    return slopes, vm - slopes * um


def _block_coeffs(pool: _Pool, cfg: BootstrapConfig, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of replicates ``block*BLOCK`` to ``block*BLOCK + BLOCK - 1``.

    The whole block is drawn, and redrawn, from substream ``(rng_seed,
    block)`` whatever ``n_replicates`` is, so a shorter run is a prefix of a
    longer one.  Only replicates below ``n_replicates`` must end up
    non-degenerate.
    """
    rng = substream(cfg.rng_seed, block)
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
    if hierarchical:
        stats = _hierarchical_stats(pool, draws, _within_draws(pool, rng, draws))
    else:
        stats = _naive_stats(pool, draws)
    # Rows past n_replicates may stay degenerate; they are cut off unread.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ols_rows(*stats)


def default_grid(runset: RunSet) -> tuple[float, ...]:
    """Geometric 25-point x-grid spanning the data's parameter counts."""
    xs = [float(s.params) for s in runset.scales]
    lo, hi = min(xs), max(xs)
    pts = set(float(p) for p in np.geomspace(lo, hi, 25))
    pts.update((lo, hi))
    return tuple(sorted(pts))


def bootstrap_band(
    runset: RunSet, cfg: BootstrapConfig, grid: Sequence[float] | None = None
) -> BootstrapBand:
    """Resample ``runset`` by ``cfg.mode`` and band the fit over ``grid``.

    ``grid`` defaults to :func:`default_grid`; the slope and intercept
    intervals and :meth:`BootstrapBand.interval_at` do not depend on it.
    """
    pool = _Pool(runset)
    if grid is None:
        grid_t = default_grid(runset)
    else:
        grid_t = tuple(float(g) for g in grid)
        if not grid_t or any(not (g > 0 and math.isfinite(g)) for g in grid_t):
            raise DataError("grid values must be positive and finite")

    b = cfg.n_replicates
    blocks = [_block_coeffs(pool, cfg, k) for k in range(-(-b // BLOCK))]
    slopes = np.concatenate([c[0] for c in blocks])[:b]
    intercepts = np.concatenate([c[1] for c in blocks])[:b]

    log_grid = np.log(np.asarray(grid_t))
    with np.errstate(over="ignore", invalid="ignore"):
        preds = np.exp(intercepts[:, None] + slopes[:, None] * log_grid[None, :])
        lo_band = np.percentile(preds, cfg.lo_pct, axis=0)
        hi_band = np.percentile(preds, cfg.hi_pct, axis=0)
    _check_finite(grid_t, lo_band, hi_band)

    return BootstrapBand(
        slope_ci=tuple(np.percentile(slopes, (cfg.lo_pct, cfg.hi_pct)).tolist()),
        intercept_ci=tuple(np.percentile(intercepts, (cfg.lo_pct, cfg.hi_pct)).tolist()),
        point_band=tuple(
            (x, float(lo), float(hi)) for x, lo, hi in zip(grid_t, lo_band, hi_band)
        ),
        replicates_used=b,
        replicate_slopes=tuple(slopes.tolist()),
        replicate_intercepts=tuple(intercepts.tolist()),
        lo_pct=cfg.lo_pct,
        hi_pct=cfg.hi_pct,
    )
