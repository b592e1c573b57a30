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

from dataclasses import InitVar, dataclass, field
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
    """Per-replicate fits and the percentile intervals they imply.

    Built from the replicate slopes and intercepts, the percentile pair and
    a grid of abscissas; construction derives the slope and intercept
    intervals, the band over the grid (``point_band``, ``(x, lo, hi)``
    rows) and the replicate count.  The grid itself is not kept.
    """

    replicate_slopes: tuple[float, ...]
    replicate_intercepts: tuple[float, ...]
    lo_pct: float
    hi_pct: float
    grid: InitVar[Sequence[float]]
    slope_ci: tuple[float, float] = field(init=False)
    intercept_ci: tuple[float, float] = field(init=False)
    point_band: tuple[tuple[float, float, float], ...] = field(init=False)
    replicates_used: int = field(init=False)

    def __post_init__(self, grid: Sequence[float]) -> None:
        if not 0 < len(self.replicate_slopes) == len(self.replicate_intercepts):
            raise DataError("need one intercept per replicate slope, and at least one replicate")
        pcts = (self.lo_pct, self.hi_pct)
        xs = np.asarray(grid, dtype=float)
        derived = dict(
            slope_ci=tuple(np.percentile(self.replicate_slopes, pcts).tolist()),
            intercept_ci=tuple(np.percentile(self.replicate_intercepts, pcts).tolist()),
            point_band=tuple(zip(xs.tolist(), *self._edges(xs).tolist())),
            replicates_used=len(self.replicate_slopes),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def _edges(self, xs: np.ndarray) -> np.ndarray:
        """``(2, len(xs))`` percentile edges of the per-replicate predictions at ``xs``."""
        if xs.size == 0 or not np.all((xs > 0) & np.isfinite(xs)):
            raise DataError("band abscissas must be positive and finite")
        slopes = np.asarray(self.replicate_slopes)[:, None]
        intercepts = np.asarray(self.replicate_intercepts)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            preds = np.exp(intercepts + slopes * np.log(xs))
            edges = np.percentile(preds, (self.lo_pct, self.hi_pct), axis=0)
        bad = ~np.isfinite(edges).all(axis=0)
        if bad.any():
            x = xs[np.argmax(bad)]
            raise DataError(f"bootstrap band at x={x:g} is not finite: the law overflows float64")
        return edges

    def interval_at(self, x: float) -> tuple[float, float]:
        """Percentile interval of the per-replicate predictions at x."""
        return tuple(self._edges(np.array([x], dtype=float))[:, 0].tolist())


class _Pool:
    """Log-values of one run set laid out group by group, with group tables.

    Scale group k owns positions ``start[k] : start[k] + sizes[k]`` of ``v``;
    every record in a group shares the group's ``u = ln N``, so a resample
    needs only its per-group counts and sums of ``v``.
    """

    def __init__(self, runset: RunSet):
        self.n_groups = len(runset.scales)
        self.sizes = runset.sizes
        self.start = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.v = np.log(runset.values)
        self.code = runset.code
        self.params = runset.params
        self.group_params = self.params[self.start]
        self.group_u = np.log(self.group_params)


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
    lo, hi = float(runset.params.min()), float(runset.params.max())
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
    b = cfg.n_replicates
    blocks = [_block_coeffs(pool, cfg, k) for k in range(-(-b // BLOCK))]
    return BootstrapBand(
        replicate_slopes=tuple(np.concatenate([c[0] for c in blocks])[:b].tolist()),
        replicate_intercepts=tuple(np.concatenate([c[1] for c in blocks])[:b].tolist()),
        lo_pct=cfg.lo_pct,
        hi_pct=cfg.hi_pct,
        grid=default_grid(runset) if grid is None else grid,
    )
