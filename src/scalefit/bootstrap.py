"""Bootstrap confidence bands for power-law fits.

Two resampling schemes are provided.  The hierarchical scheme draws the M
scale groups with replacement and then, within each drawn group, that
group's own number of records with replacement; it captures between-scale
variance (e.g. pretraining seeds) on top of per-run variance and yields
noticeably more conservative intervals when between-scale variance
dominates.  The naive scheme ignores the group structure and draws all
M*T pooled points with replacement.

Replicates are computed in fixed blocks of ``BLOCK``.  Block k consumes its
own counter-based random substream derived from (rng_seed, k), which draws
the block's resamples as one index array; a band opens its blocks'
substreams on one Philox generator, re-keyed for each block.  The fit is
separate from the draws: each run of ``REDUCE_ELEMENTS // (BLOCK * widest)``
consecutive blocks (at least one), where ``widest`` is the largest resample
the pool allows, is reduced to per-group counts and sums.  Every step of
that reduction, and of the least squares, works per row, so a block's
replicates are the same bits whether it is reduced alone or with its
neighbours.  Results are therefore bit-identical however the blocks are
scheduled, and because ``BLOCK`` does not depend on the replicate count, a
run with B replicates is a prefix of any run with more.  Resamples that
collapse to fewer than two distinct scales are redrawn, in row order, from
the block's substream; a kept replicate that stays degenerate for
``MAX_REDRAWS`` consecutive draws aborts the run.

In both modes and whatever the group sizes, the draws of a run are
computed at once from the raw 64-bit words of its blocks' substreams, with
numpy's own bounded-integer method, and reduced into arrays that hold
every replicate of the band.  Only a block that needs a redraw (or holds a
word that may be rejected) is drawn again one call at a time, and its
counts and sums overwrite the run's in its rows; the draws are the same
integers either way.  One vectorized least squares fits every row.  A
band's slopes, intercepts and grid predictions are the sorted rows of one
table, whose edges are read off by numpy's ``linear`` percentile rule
written out (:func:`_percentiles`), the bits of ``np.percentile``.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Sequence

import numpy as np

from .errors import DataError, DegenerateDataError
from .records import RunSet
from .rng import Substreams

# Replicates per random substream.  Fixed, so that the replicate stream does
# not depend on the replicate count.
BLOCK = 32
# Index elements (within-group positions or pooled draws) drawn and reduced
# in one pass, so small blocks share a pass's fixed cost while the index
# arrays stay bounded.  The grouped stats that the passes write grow with the
# replicate count, as the band's table does.
REDUCE_ELEMENTS = 2**14
# Consecutive draws a kept replicate may take before a degenerate resample
# aborts the run.
MAX_REDRAWS = 100
# The resampling schemes a BootstrapConfig accepts.
MODES = ("hierarchical", "naive")


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
        if self.mode not in MODES:
            raise DataError(f"unknown bootstrap mode {self.mode!r}")


@dataclass(frozen=True)
class BootstrapBand:
    """Per-replicate fits and the percentile intervals they imply.

    Built from the replicate slopes and intercepts (any float sequences,
    kept as tuples), the percentile pair and a grid of abscissas;
    construction derives the slope and intercept intervals and the band over
    the grid (``point_band``, ``(x, lo, hi)`` rows).  The grid itself is not
    kept, and the replicate count is ``len(replicate_slopes)``.
    """

    replicate_slopes: tuple[float, ...]
    replicate_intercepts: tuple[float, ...]
    lo_pct: float
    hi_pct: float
    grid: InitVar[Sequence[float]]
    slope_ci: tuple[float, float] = field(init=False)
    intercept_ci: tuple[float, float] = field(init=False)
    point_band: tuple[tuple[float, float, float], ...] = field(init=False)

    def __post_init__(self, grid: Sequence[float]) -> None:
        slopes = np.asarray(self.replicate_slopes, dtype=float)
        intercepts = np.asarray(self.replicate_intercepts, dtype=float)
        if not 0 < len(slopes) == len(intercepts):
            raise DataError("need one intercept per replicate slope, and at least one replicate")
        xs = np.asarray(grid, dtype=float)
        if xs.size == 0 or not np.all((xs > 0) & np.isfinite(xs)):
            raise DataError("band abscissas must be positive and finite")
        with np.errstate(over="ignore", invalid="ignore"):
            table = np.vstack((slopes, intercepts, np.exp(intercepts + slopes * np.log(xs)[:, None])))
            table.sort(axis=1)
            edges = _percentiles(table, (self.lo_pct, self.hi_pct))
        bad = ~np.isfinite(edges[:, 2:]).all(axis=0)
        if bad.any():
            raise DataError(f"bootstrap band at x={xs[np.argmax(bad)]:g} is not finite: the law overflows float64")
        lo, hi = edges.tolist()
        derived = dict(
            replicate_slopes=tuple(slopes.tolist()),
            replicate_intercepts=tuple(intercepts.tolist()),
            slope_ci=(lo[0], hi[0]),
            intercept_ci=(lo[1], hi[1]),
            point_band=tuple(zip(xs.tolist(), lo[2:], hi[2:])),
        )
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def _percentiles(table: np.ndarray, pcts: tuple[float, float]) -> np.ndarray:
    """``np.percentile(table, pcts, axis=1)``, the same bits, of a table whose rows are sorted.

    numpy's default ``linear`` rule (Hyndman & Fan 1996, type 7) written out
    step for step as numpy takes it: the virtual index ``(n - 1) * q``, its
    floor and the next index, both clipped to the last value when the index
    reaches it, and ``_lerp``'s two-sided interpolation, which is exact at
    both ends.  A row that holds NaN, which sorts last, gets its last value.
    (Where zeros of both signs tie, the sign of an edge may differ.)
    """
    n = table.shape[1]
    at = (n - 1) * np.true_divide(pcts, 100)
    below = np.floor(at)
    above = below + 1
    last = at >= n - 1
    below[last] = above[last] = -1
    below, above = below.astype(np.intp), above.astype(np.intp)
    t = (at - below)[:, None]
    a, b = table.T[below], table.T[above]
    diff = b - a
    edges = a + diff * t
    np.subtract(b, diff * (1 - t), out=edges, where=t >= 0.5)
    np.copyto(edges, table[:, -1], where=np.isnan(table[:, -1]))
    return edges


class _Pool:
    """Log-values of one run set laid out group by group, with group tables.

    Scale group k owns positions ``start[k] : start[k] + sizes[k]`` of ``v``;
    every record in a group shares the group's ``u = ln N``, so a resample
    needs only its per-group counts and sums of ``v``.  ``common_size`` is
    the size every group has, or 0 when the sizes differ.  A drawn group's
    within-group draw takes ``within`` 32-bit words (none for one record),
    and ``screen`` is the largest rejection threshold of those draws.
    """

    def __init__(self, runset: RunSet):
        self.n_groups = len(runset.scales)
        self.sizes = runset.sizes
        self.start = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.common_size = int(self.sizes[0]) if (self.sizes == self.sizes[0]).all() else 0
        self.within = np.where(self.sizes > 1, self.sizes, 0)
        self.screen = max((2**32 - s) % s for s in set(self.sizes.tolist()))
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
    expanded points up to rounding.  One scratch array holds the products
    in turn, so the fit adds few ``(rows, M)`` temporaries to its inputs.
    """
    n = counts.sum(axis=1)
    um = (counts * u).sum(axis=1) / n
    vm = sums.sum(axis=1) / n
    du = u - um[:, None]
    scratch = counts * vm[:, None]
    np.subtract(sums, scratch, out=scratch)
    scratch *= du
    sxy = scratch.sum(axis=1)
    np.multiply(counts, du, out=scratch)
    scratch *= du
    slopes = sxy / scratch.sum(axis=1)
    return slopes, vm - slopes * um


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


def _lemire(halves: np.ndarray, excl) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draws in ``[0, excl)`` from 32-bit words, and each word's leftover.

    This is the multiply of Lemire (ACM TOMACS 2019) that ``Generator.integers``
    applies to one 32-bit word per value for a bound below 2**32.  numpy
    rejects a word whose leftover is below ``(2**32 - excl) % excl`` and draws
    again from the next word, so a value is numpy's only if its word is kept.
    ``excl`` is one bound, or a uint64 array of one per word; a bound of 1
    takes no word.
    """
    m = halves.astype(np.uint64)
    m *= excl
    leftover = m.astype(np.uint32)
    m >>= 32
    return m.view(np.int64), leftover


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw 64-bit words, low half first, as ``integers`` takes them."""
    return words.astype("<u8", copy=False).view("<u4")


def _word_draws(
    pool: _Pool, cfg: BootstrapConfig, blocks: range, streams: Substreams
) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The :func:`_block_draws` results of consecutive ``blocks``, made from raw words.

    ``integers`` takes one 32-bit half per value, low half first, and none
    for a bound of 1.  So the scale draw (or the pooled naive draw) is the
    first ``BLOCK * width`` halves of a block's substream, and the
    within-group draw is the next ones, one per drawn record of a group
    larger than one.  ``BLOCK * width`` halves end on a 64-bit word, so when
    groups differ in size a second ``random_raw`` on the same stream reads the
    within-group draw, whose length the scale draw sets.  A block with a
    degenerate row, or with a word whose leftover is below the largest
    rejection threshold of its bounds, reads its stream in another order.
    Returns the run's draws, laid out as one block's, and a mask of the
    blocks that :func:`_block_draws` must draw again; such a block's rows
    here still hold in-range indices, and its redrawn rows overwrite them.
    """
    hierarchical = cfg.mode == "hierarchical"
    width, key = (pool.n_groups, pool.group_params) if hierarchical else (pool.v.size, pool.params)
    n = BLOCK * width
    h = pool.common_size if hierarchical else 1  # 0: the scale draw sets the within draw's length
    raw = np.empty((len(blocks), (n + n * h * (h > 1)) // 2), dtype=np.uint64)
    tails = []
    for i, k in enumerate(blocks):
        bits = streams.open(k).bit_generator
        raw[i] = bits.random_raw(raw.shape[1])
        if not h:
            count = int(pool.within[_lemire(_halves(raw[i]), width)[0]].sum())
            tails.append(_halves(bits.random_raw(-(-count // 2)))[:count])
    halves = _halves(raw)
    draws, leftover = _lemire(halves[:, :n], width)
    redo = leftover.min(axis=1) < (2**32 - width) % width
    rows = draws.reshape(-1, width)
    suspect = np.flatnonzero(key[rows[:, 0]] == key[rows[:, -1]])  # rows whose ends differ are not degenerate
    redo[suspect[_degenerate(key[rows[suspect]])] // BLOCK] = True
    run = (rows,)
    if hierarchical and h:
        within, leftover = _lemire(halves[:, n:], h)
        redo |= leftover.min(axis=1, initial=2**32 - 1) < pool.screen
        starts = pool.start[rows].reshape(-1, 1)
        run = (rows, (starts + within.reshape(-1, h) if h > 1 else starts).ravel())
    elif hierarchical:
        counts, wanted = pool.sizes[rows].ravel(), pool.within[rows].ravel()
        within, leftover = _lemire(np.concatenate(tails), np.repeat(wanted.view(np.uint64), wanted))
        if leftover.min(initial=2**32 - 1) < pool.screen:
            hits = np.flatnonzero(leftover < pool.screen)
            redo[np.searchsorted(np.cumsum([t.size for t in tails]), hits, side="right")] = True
        positions = np.repeat(pool.start[rows].ravel(), counts)
        if within.size == positions.size:
            positions += within
        else:  # a group of one record takes no word
            positions[np.repeat(wanted > 0, counts)] += within
        run = (rows, positions)
    return run, redo


def _fits(pool: _Pool, cfg: BootstrapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the first ``n_replicates`` replicates, fitted at once.

    The blocks are drawn by :func:`_word_draws` one run of consecutive
    blocks at a time.  A run holds as many blocks, at least one, as fit in
    ``REDUCE_ELEMENTS`` at the widest resample: ``n_groups`` times the
    largest group in the hierarchical mode, every record in the naive one.
    Each run is reduced straight into its rows of the band's group counts
    and sums.  Each block of it that must be drawn again is then drawn by
    :func:`_block_draws` and reduced over its own rows, overwriting the
    run's; a row's counts and sums depend on it alone.  One least squares
    fits every row.
    """
    hierarchical = cfg.mode == "hierarchical"
    stats = _hierarchical_stats if hierarchical else _naive_stats
    widest = pool.n_groups * int(pool.sizes.max()) if hierarchical else pool.v.size
    step = max(1, REDUCE_ELEMENTS // (BLOCK * widest))
    n_blocks = -(-cfg.n_replicates // BLOCK)
    shape = (n_blocks * BLOCK, pool.n_groups)
    u = np.empty(shape) if hierarchical else pool.group_u
    counts, sums = np.empty(shape, dtype=pool.sizes.dtype), np.empty(shape)
    streams = Substreams(cfg.rng_seed)
    for first in range(0, n_blocks, step):
        blocks = range(first, min(first + step, n_blocks))
        draws, redo = _word_draws(pool, cfg, blocks, streams)
        for i, k in enumerate((first, *(first + np.flatnonzero(redo)).tolist())):
            if i:  # after the run, each block drawn again overwrites its rows
                draws = _block_draws(pool, cfg, k, streams)
            rows = slice(k * BLOCK, k * BLOCK + len(draws[0]))
            run_u, counts[rows], sums[rows] = stats(pool, *draws)
            if hierarchical:
                u[rows] = run_u
        del draws, run_u  # released before the next run is drawn
    b = cfg.n_replicates
    # Two distinct parameter counts may share one float64 log; the band then
    # reports the NaN fit as not finite.
    with np.errstate(divide="ignore", invalid="ignore"):
        return _ols_rows(u[:b] if hierarchical else u, counts[:b], sums[:b])


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
    intervals do not depend on it.
    """
    slopes, intercepts = _fits(_Pool(runset), cfg)
    return BootstrapBand(
        replicate_slopes=slopes,
        replicate_intercepts=intercepts,
        lo_pct=cfg.lo_pct,
        hi_pct=cfg.hi_pct,
        grid=default_grid(runset) if grid is None else grid,
    )
