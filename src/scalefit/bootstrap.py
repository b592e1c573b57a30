"""Bootstrap confidence bands for power-law fits.

Two resampling schemes are provided.  The hierarchical scheme draws the M
scale groups with replacement and then, within each drawn group, that
group's own number of records with replacement; it captures between-scale
variance (e.g. pretraining seeds) on top of per-run variance and yields
noticeably more conservative intervals when between-scale variance
dominates.  The naive scheme ignores the group structure and draws all
M*T pooled points with replacement.

Replicates are computed in fixed blocks of ``BLOCK``.  Block k draws its
resamples from its own counter-based substream, derived from (rng_seed, k);
a band opens its blocks' substreams on one Philox generator, re-keyed for
each block.  A block reads its substream as one stream of 32-bit halves
and takes from it the integers that ``Generator.integers`` would draw,
with numpy's own bounded-integer method, skipping the halves that numpy
rejects (:func:`_splice`): the scale draw, then redraws, in row order, of
resamples that collapse to fewer than two distinct scales, then the
within-group draw.  A kept replicate still degenerate after
``MAX_REDRAWS`` draws aborts the run.  Each run of ``REDUCE_ELEMENTS //
(BLOCK * widest)`` consecutive blocks (at least one), where ``widest`` is
the largest resample the pool allows, is drawn at once and reduced to
per-group counts and sums.  That reduction, and the one vectorized least
squares that fits every row, work per row, so a block's replicates are the
same bits however the blocks are scheduled, and since ``BLOCK`` does not
depend on the replicate count, a run with B replicates is a prefix of any
run with more.  A band's slopes, intercepts and grid predictions are the
sorted rows of one table, whose edges are read off by numpy's ``linear``
percentile rule written out (:func:`_percentiles`), the bits of
``np.percentile``.
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
    the size every group has, or 0 when the sizes differ, and ``within`` the
    mean and spread of the halves a drawn group's within draw takes and the
    highest rejection threshold of its bounds.
    """

    def __init__(self, runset: RunSet):
        self.n_groups = len(runset.scales)
        self.sizes = runset.sizes
        self.start = np.concatenate(([0], np.cumsum(self.sizes)[:-1]))
        self.common_size = int(self.sizes[0]) if (self.sizes == self.sizes[0]).all() else 0
        takes = np.where(self.sizes > 1, self.sizes, 0)
        self.within = (takes.mean(), takes.std(), int(((2**32 - self.sizes) % self.sizes).max()))
        self.v = np.log(runset.values)
        self.code = runset.code
        self.params = runset.params
        self.group_params = self.params[self.start]
        self.group_u = np.log(self.group_params)


def _degenerate(params: np.ndarray) -> np.ndarray:
    """Rows of drawn parameter counts with fewer than 2 distinct values."""
    return (params == params[:, :1]).all(axis=1)


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


def _lemire(halves: np.ndarray, excl) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draws in ``[0, excl)`` from 32-bit words, and each word's leftover.

    This is the multiply of Lemire (ACM TOMACS 2019) that ``Generator.integers``
    applies to one 32-bit word per value for a bound below 2**32.  numpy
    rejects a word whose leftover is below ``(2**32 - excl) % excl`` and draws
    again from the next word, so a value is numpy's only if its word is kept.
    ``excl`` is one bound, or an unsigned array of one per word; a bound of
    1 takes no word.
    """
    m = halves.astype(np.uint64)
    m *= excl
    leftover = m.astype(np.uint32)
    m >>= 32
    return m.view(np.int64), leftover


def _margin(count: float, threshold: int) -> int:
    """Halves read past ``count`` for those rejected at ``threshold``: as many as expected, 4 sd more and 8."""
    return int((rejected := count * threshold / 2**32) + 4 * rejected**0.5) + 8


class _Short(Exception):
    """A draw needs more halves than its stream read."""


def _take(halves: np.ndarray, excl: int, count, at) -> tuple[np.ndarray, np.ndarray]:
    """Each row's next ``count`` draws in ``[0, excl)`` from its halves at ``at`` on (either may be per row).

    The draws are sought among the halves they should need, with a margin
    for rejected ones, and among the whole rows only if those run short.  A
    row-wise running count of accepted halves selects them for every row at
    once.  Returns the draws, row after row, and each row's next position."""
    thr = (2**32 - excl) % excl
    if np.ndim(count) == np.ndim(at) == 0 and at + count <= halves.shape[1]:
        values, leftover = _lemire(halves[:, at : at + count], excl)
        if leftover.min() >= thr:
            return values, at + count  # no half rejected
        del values, leftover
    count, at = (np.broadcast_to(x, len(halves))[:, None] for x in (count, at))
    need = int((at + count).max()) + _margin(int(count.max()), thr)
    for view in (halves[:, :need], halves):
        values, leftover = _lemire(view, excl)
        accepted = leftover >= thr  # numpy keeps a half whose leftover reaches the threshold
        del leftover
        accepted &= np.arange(view.shape[1]) >= at
        taken = accepted.cumsum(axis=1, dtype=np.int32)
        if (taken[:, -1:] >= count).all():
            accepted &= taken <= count
            ends = np.where(count > 0, (taken < count).sum(axis=1, keepdims=True) + 1, at)
            return values[accepted], ends[:, 0]
    raise _Short


def _splice(halves: np.ndarray, at: int, excl, count) -> tuple[np.ndarray, int]:
    """``Generator.integers(0, np.repeat(excl, count))`` from a stream's next 32-bit halves, ``halves[at:]``.

    ``integers`` takes one half per value (none for a bound of 1) and, where
    a half's leftover is below its bound's threshold, rejects it and takes
    the next: the values are those of the accepted halves in order.  Each
    rejected half moves the rest of the draw along by one half, so the
    halves are paired with their bounds 2**16 at a time, from the last
    rejected one on, and a rejection costs at most one such window again.
    Returns the values and the next position."""
    if excl.min(initial=2) == 1:
        values = np.zeros(count.sum(), dtype=np.int64)
        takes = excl > 1
        values[np.repeat(takes, count)], at = _splice(halves, at, excl[takes], count[takes])
        return values, at
    top = int(excl.max(initial=0))
    excl = np.repeat(excl.astype(np.uint32), count)
    values = np.empty(0, dtype=np.int64)
    done = 0
    while done < excl.size:
        todo = excl[done : done + 2**16]
        if halves.size - at < todo.size:
            raise _Short
        draws, leftover = _lemire(halves[at : at + todo.size], todo)
        low = np.flatnonzero(leftover < top).tolist() if leftover.min() < top else []  # thresholds < bounds
        kept = next((j for j in low if leftover[j] < (2**32 - int(todo[j])) % int(todo[j])), todo.size)
        if kept == excl.size:  # one window and no half rejected, as in most draws
            return draws, at + kept
        if not values.size:
            values = np.empty(excl.size, dtype=np.int64)
        values[done : done + kept] = draws[:kept]
        done += kept
        at += kept + (kept < todo.size)  # past a rejected half
    return values, at


def _draws(pool: _Pool, cfg: BootstrapConfig, first_block: int, halves: np.ndarray) -> tuple[np.ndarray, ...]:
    """The resamples of consecutive blocks, one row of ``halves`` each, laid out as one block's:
    ``(groups, positions)``, or ``(idx,)`` in the naive mode.

    A block's scale draw (or pooled naive draw) takes its first ``BLOCK *
    width`` accepted halves, degenerate rows are redrawn from the next ones,
    in row order, and the within-group draw takes the halves after that."""
    hierarchical = cfg.mode == "hierarchical"
    width, key = (pool.n_groups, pool.group_params) if hierarchical else (pool.v.size, pool.params)
    n = BLOCK * width
    h = pool.common_size
    draws, end = _take(halves, width, n, 0)
    rows = draws.reshape(-1, width)
    bad = key[rows[:, 0]] == key[rows[:, -1]]  # rows whose ends differ are not degenerate
    bad[bad] = _degenerate(key[rows[bad]])
    for _ in range(MAX_REDRAWS - 1):
        again = np.flatnonzero(bad)
        if again.size == 0:
            break
        draws, end = _take(halves, width, width * np.bincount(again // BLOCK, minlength=len(halves)), end)
        rows[again] = draws.reshape(-1, width)
        bad[again] = _degenerate(key[rows[again]])
    if (kept := bad[: cfg.n_replicates - first_block * BLOCK]).any():
        raise DegenerateDataError(
            f"replicate {first_block * BLOCK + int(np.argmax(kept))}: no resample with 2 distinct "
            f"scales after {MAX_REDRAWS} consecutive redraws"
        )
    if not hierarchical:
        return (rows,)
    starts = pool.start[rows].reshape(len(halves), -1)
    if h > 1:  # one bound: every block's within-group draw at once
        draws = _take(halves[:, n:], h, n * h, end - n)[0]
        return rows, (starts[:, :, None] + draws.reshape(len(halves), -1, h)).ravel()
    counts = pool.sizes[rows].reshape(len(halves), -1)
    positions = np.repeat(starts.ravel(), counts.ravel())
    stops = np.cumsum(counts.sum(axis=1)).tolist()
    for row, at, c, lo, hi in zip(halves, np.broadcast_to(end, len(halves)).tolist(), counts, [0, *stops], stops):
        positions[lo:hi] += _splice(row, at, c, c)[0]
    return rows, positions


def _word_draws(pool: _Pool, cfg: BootstrapConfig, blocks: range, streams: Substreams) -> tuple[np.ndarray, ...]:
    """The :func:`_draws` of consecutive ``blocks``, from the raw words of their substreams.

    Block k reads substream ``(rng_seed, k)``, opened on ``streams``: the words
    its draws should take, with margins for rejected halves and for the spread
    of a within-group draw's length; if they run short, twice as many."""
    hierarchical = cfg.mode == "hierarchical"
    width = pool.n_groups if hierarchical else pool.v.size
    n = BLOCK * width
    mean, sd, thr = pool.within if hierarchical else (0, 0, 0)
    within = n * mean + 4 * n**0.5 * sd
    words = -(-int(n + _margin(n, (2**32 - width) % width) + within + _margin(within, thr)) // 2)
    while True:
        raw = np.empty((len(blocks), words), dtype="<u8")
        for row, k in zip(raw, blocks):
            row[:] = streams.open(k).bit_generator.random_raw(words)
        try:  # each word's low 32-bit half first, as integers takes them
            return _draws(pool, cfg, blocks[0], raw.view("<u4"))
        except _Short:
            words *= 2


def _fits(pool: _Pool, cfg: BootstrapConfig) -> tuple[np.ndarray, np.ndarray]:
    """Slopes and intercepts of the first ``n_replicates`` replicates, fitted at once.

    :func:`_word_draws` draws one run of consecutive blocks at a time: as
    many blocks, at least one, as fit in ``REDUCE_ELEMENTS`` at the widest
    resample (``n_groups`` times the largest group in the hierarchical mode,
    every record in the naive one).  Each run is reduced straight into its
    rows of the band's group counts and sums, and one least squares fits
    every row.
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
        draws = _word_draws(pool, cfg, range(first, min(first + step, n_blocks)), streams)
        rows = slice(first * BLOCK, first * BLOCK + len(draws[0]))
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
