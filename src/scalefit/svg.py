"""Hand-rolled log-log SVG plots with deterministic bytes.

No raster codecs, no timestamps, no generated ids: rendering the same spec
twice yields byte-identical documents, which keeps plots usable as test
fixtures and reproducibility artifacts.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bootstrap import BootstrapBand
from .errors import DataError
from .powerlaw import FitResult, predict_at
from .records import RecordTable, RunSet, _order_key

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_WIDTH = 720.0
_HEIGHT = 540.0
_MARGIN_L = 80.0
_MARGIN_R = 150.0
_MARGIN_T = 48.0
_MARGIN_B = 64.0


@dataclass(frozen=True, eq=False)
class ScatterGroup:
    """One marker series; held-out groups render as open markers.  ``points``,
    given as any sequence of (x, y) pairs, is held as a read-only ``(n, 2)``
    float64 array; groups compare as record tables do."""

    label: str
    points: np.ndarray
    held_out: bool = False

    def __post_init__(self) -> None:
        points = np.array(self.points, dtype=float)
        points = points.reshape(0, 2) if points.size == 0 else points
        if points.shape[1:] != (2,):
            raise DataError("points must be (x, y) pairs")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    __eq__ = RecordTable.__eq__


@dataclass(frozen=True)
class PlotSpec:
    """Everything a log-log scatter-plus-fit plot needs."""

    title: str = ""
    x_label: str = "x"
    y_label: str = "y"
    groups: tuple[ScatterGroup, ...] = ()
    fit: FitResult | None = None
    band: BootstrapBand | None = None


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str) -> str:
    ends = f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"'
    return f'<line {ends} stroke="{stroke}" stroke-width="{width}"/>'


def _text(x: float, y: float, size: int, text: str, anchor: str | None = "middle") -> str:
    """Sans-serif ``text``, escaped, at (x, y); ``anchor=None`` leaves the SVG default (start)."""
    anchor_attr = f' text-anchor="{anchor}"' if anchor else ""
    attrs = f'x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}"{anchor_attr}'
    return f'<text {attrs} font-family="sans-serif">{_esc(text)}</text>'


class _Axes:
    def __init__(self, lx: tuple[float, float], ly: tuple[float, float]):
        self.lx0, self.lx1 = lx
        self.ly0, self.ly1 = ly
        self.plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
        self.plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(self, x: float) -> float:
        return _MARGIN_L + (math.log10(x) - self.lx0) / (self.lx1 - self.lx0) * self.plot_w

    def py(self, y: float) -> float:
        return _MARGIN_T + (self.ly1 - math.log10(y)) / (self.ly1 - self.ly0) * self.plot_h


def _log_range(values: list[float]) -> tuple[float, float]:
    """The padded log10 range of ``values``.  A range narrower than 1e-6 is
    widened to a decade: its :func:`_ticks` would have labels of 8 or more
    digits and, with the exponent, over 12 characters, past the left margin."""
    lo = math.log10(min(values))
    hi = math.log10(max(values))
    if hi - lo < 1e-6:
        return lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """(value, label) of the ticks of the log10 range ``lo..hi``: its powers
    of ten, or, if it holds fewer than two, the integer multiples of the
    largest power of ten 10**k that puts two or more inside it, as ``me{k}``."""
    decades = range(math.ceil(lo), math.floor(hi) + 1)
    if len(decades) >= 2:
        return [(10.0**k, f"1e{k}") for k in decades]
    k = math.floor(hi)
    while len(multiples := range(math.ceil(10 ** (lo - k)), math.floor(10 ** (hi - k)) + 1)) < 2:
        k -= 1
    return [(m * 10.0**k, f"{m}e{k}") for m in multiples]


def render_plot(spec: PlotSpec) -> str:
    """Render a plot description to a standalone SVG document string.

    Axes are log10 on both sides, the fitted law is a straight line, and
    the confidence sleeve (when a band is supplied) is a single polygon
    whose vertex count is twice the band's grid size.
    """
    marks = np.concatenate([np.empty((0, 2)), *(g.points for g in spec.groups)])
    band = np.array(spec.band.point_band if spec.band is not None else (), dtype=float).reshape(-1, 3)
    xs, ys = np.concatenate((marks[:, 0], band[:, 0])), np.concatenate((marks[:, 1], band[:, 1:].ravel()))
    if not xs.size:
        raise DataError("plot needs at least one series with data")
    x_range, y_range = [float(xs.min()), float(xs.max())], [float(ys.min()), float(ys.max())]
    if not all(0 < lo <= hi < math.inf for lo, hi in (x_range, y_range)):  # false for a NaN too
        raise DataError("log-log plot requires finite positive coordinates")
    if min(x_range[0], y_range[0]) < sys.float_info.min:  # a tick value at a subnormal underflows
        raise DataError(f"log-log plot requires coordinates of at least {sys.float_info.min!r}")
    if spec.fit is not None:
        y_range += [predict_at(spec.fit, v) for v in x_range]

    ax = _Axes(_log_range(x_range), _log_range(y_range))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>',
    ]

    # Gridlines and tick labels.
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _MARGIN_T, _HEIGHT - _MARGIN_B
    for value, label in _ticks(ax.lx0, ax.lx1):
        px = ax.px(value)
        out += [_line(px, y0, px, y1, "#dddddd", "1"), _text(px, y1 + 18, 11, label)]
    for value, label in _ticks(ax.ly0, ax.ly1):
        py = ax.py(value)
        out += [_line(x0, py, x1, py, "#dddddd", "1"), _text(x0 - 6, py + 4, 11, label, "end")]
    out.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(x1 - x0)}" height="{_fmt(y1 - y0)}" '
        'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    # Confidence sleeve: top edge left to right, bottom edge back.
    if spec.band is not None and spec.band.point_band:
        rows = spec.band.point_band
        verts = [(ax.px(x), ax.py(hi)) for x, _, hi in rows]
        verts += [(ax.px(x), ax.py(lo)) for x, lo, _ in reversed(rows)]
        pts = " ".join(f"{_fmt(vx)},{_fmt(vy)}" for vx, vy in verts)
        out.append(f'<polygon points="{pts}" fill="#1f77b4" fill-opacity="0.25"/>')

    # Fitted line, straight in log space, drawn across the data x-range.
    if spec.fit is not None:
        ends = [(ax.px(x), ax.py(predict_at(spec.fit, x))) for x in x_range]
        out.append(_line(*ends[0], *ends[1], "#d62728", "1.5"))

    # Markers: cx is formatted once per distinct x; cy is _Axes.py written
    # out, in the same order of operations, so it gives the same floats.
    # ``marks`` holds the groups' points in group order.
    xs, ys = marks.T.tolist()
    cx = {x: _fmt(ax.px(x)) for x in set(xs)}
    ly1, ly_span, plot_h = ax.ly1, ax.ly1 - ax.ly0, ax.plot_h
    marks = zip(xs, ys)
    for gi, g in enumerate(spec.groups):
        color = _PALETTE[gi % len(_PALETTE)]
        if g.held_out:
            tail = f'r="4.00" fill="none" stroke="{color}" stroke-width="1.5"/>'
        else:
            tail = f'r="3.00" fill="{color}"/>'
        out += [
            f'<circle cx="{cx[x]}" cy="{_MARGIN_T + (ly1 - math.log10(y)) / ly_span * plot_h:.2f}" {tail}'
            for x, y in itertools.islice(marks, len(g.points))
        ]

    # Legend, one swatch per group.
    lx, ly = x1 + 12, y0 + 8
    for gi, g in enumerate(spec.groups):
        color = _PALETTE[gi % len(_PALETTE)]
        fill = "none" if g.held_out else color
        out.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly + 16 * gi)}" width="10" height="10" '
            f'fill="{fill}" stroke="{color}"/>'
        )
        out.append(_text(lx + 16, ly + 16 * gi + 9, 11, g.label, anchor=None))

    if spec.title:
        out.append(_text(_WIDTH / 2, _MARGIN_T - 16, 15, spec.title))
    out.append(_text((x0 + x1) / 2, _HEIGHT - 16, 13, spec.x_label))
    out.append(
        f'<text x="18" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_fmt((y0 + y1) / 2)})">'
        f"{_esc(spec.y_label)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_plot(spec: PlotSpec, path: str | Path) -> bytes:
    """Write the rendered SVG as UTF-8 and return the bytes written."""
    data = render_plot(spec).encode("utf-8")
    Path(path).write_bytes(data)
    return data


def plot_runset(
    runset: RunSet,
    fit: FitResult | None = None,
    band: BootstrapBand | None = None,
    heldout_layers: tuple[int, int] | None = None,
    title: str | None = None,
) -> PlotSpec:
    """Build a PlotSpec from a run set, one marker group per pretrain seed.

    Records inside ``heldout_layers`` (inclusive, see
    :meth:`RunSet.within_layers`) are pulled out into a separate
    open-marker group.
    """
    held = runset.within_layers(*heldout_layers) if heldout_layers else np.zeros(len(runset), dtype=bool)
    kept = np.flatnonzero(~held)
    key = _order_key(runset.seeds[kept, 0])
    order = np.argsort(key, kind="stable")  # by seed, in run set order within one
    rows, key = kept[order], key[order]
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1]))[: len(key)])
    points = runset.points()
    seeds = runset.seeds[rows[starts], 0].tolist()
    groups = [ScatterGroup(f"pretrain seed {s}", points[part]) for s, part in zip(seeds, np.split(rows, starts[1:]))]
    if held.any():
        groups.append(ScatterGroup(label="held out", points=points[held], held_out=True))
    return PlotSpec(
        title=title if title is not None else f"{runset.task}/{runset.family}",
        x_label="parameters",
        y_label=runset.metric,
        groups=tuple(groups),
        fit=fit,
        band=band,
    )
