"""Hand-rolled log-log SVG plots with deterministic bytes.

No raster codecs, no timestamps, no generated ids: rendering the same spec
twice yields byte-identical documents, which keeps plots usable as test
fixtures and reproducibility artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bootstrap import BootstrapBand
from .errors import DataError
from .powerlaw import FitResult, predict_at
from .records import RunSet

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


@dataclass(frozen=True)
class ScatterGroup:
    """One marker series; held-out groups render as open markers."""

    label: str
    points: tuple[tuple[float, float], ...]
    held_out: bool = False


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
    lo = math.log10(min(values))
    hi = math.log10(max(values))
    if hi - lo < 1e-12:
        return lo - 0.5, hi + 0.5
    pad = 0.04 * (hi - lo)
    return lo - pad, hi + pad


def _decade_ticks(lo: float, hi: float) -> list[int]:
    return list(range(math.ceil(lo), math.floor(hi) + 1))


def render_plot(spec: PlotSpec) -> str:
    """Render a plot description to a standalone SVG document string.

    Axes are log10 on both sides, the fitted law is a straight line, and
    the confidence sleeve (when a band is supplied) is a single polygon
    whose vertex count is twice the band's grid size.
    """
    xs: list[float] = []
    ys: list[float] = []
    for g in spec.groups:
        for x, y in g.points:
            xs.append(float(x))
            ys.append(float(y))
    if spec.band is not None:
        for x, lo, hi in spec.band.point_band:
            xs.append(float(x))
            ys.extend((float(lo), float(hi)))
    if not xs:
        raise DataError("plot needs at least one series with data")
    if any(v <= 0 for v in xs + ys):
        raise DataError("log-log plot requires positive coordinates")
    if spec.fit is not None:
        ys.extend(predict_at(spec.fit, v) for v in (min(xs), max(xs)))

    ax = _Axes(_log_range(xs), _log_range(ys))
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<rect x="0" y="0" width="{_WIDTH:.0f}" height="{_HEIGHT:.0f}" fill="#ffffff"/>',
    ]

    # Gridlines and decade tick labels.
    x0, x1 = _MARGIN_L, _WIDTH - _MARGIN_R
    y0, y1 = _MARGIN_T, _HEIGHT - _MARGIN_B
    for k in _decade_ticks(ax.lx0, ax.lx1):
        px = ax.px(10.0**k)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y1)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y1 + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">1e{k}</text>'
        )
    for k in _decade_ticks(ax.ly0, ax.ly1):
        py = ax.py(10.0**k)
        out.append(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(py)}" x2="{_fmt(x1)}" y2="{_fmt(py)}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x0 - 6)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">1e{k}</text>'
        )
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
        xa, xb = min(xs), max(xs)
        out.append(
            f'<line x1="{_fmt(ax.px(xa))}" y1="{_fmt(ax.py(predict_at(spec.fit, xa)))}" '
            f'x2="{_fmt(ax.px(xb))}" y2="{_fmt(ax.py(predict_at(spec.fit, xb)))}" '
            'stroke="#d62728" stroke-width="1.5"/>'
        )

    for gi, g in enumerate(spec.groups):
        color = _PALETTE[gi % len(_PALETTE)]
        for x, y in g.points:
            cx, cy = _fmt(ax.px(float(x))), _fmt(ax.py(float(y)))
            if g.held_out:
                out.append(
                    f'<circle cx="{cx}" cy="{cy}" r="4.00" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
            else:
                out.append(f'<circle cx="{cx}" cy="{cy}" r="3.00" fill="{color}"/>')

    # Legend, one swatch per group.
    lx, ly = x1 + 12, y0 + 8
    for gi, g in enumerate(spec.groups):
        color = _PALETTE[gi % len(_PALETTE)]
        fill = "none" if g.held_out else color
        out.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(ly + 16 * gi)}" width="10" height="10" '
            f'fill="{fill}" stroke="{color}"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 16)}" y="{_fmt(ly + 16 * gi + 9)}" font-size="11" '
            f'font-family="sans-serif">{_esc(g.label)}</text>'
        )

    if spec.title:
        out.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_MARGIN_T - 16)}" font-size="15" '
            f'text-anchor="middle" font-family="sans-serif">{_esc(spec.title)}</text>'
        )
    out.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_fmt(_HEIGHT - 16)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">{_esc(spec.x_label)}</text>'
    )
    out.append(
        f'<text x="18" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_fmt((y0 + y1) / 2)})">'
        f"{_esc(spec.y_label)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_plot(spec: PlotSpec, path: str | Path) -> None:
    Path(path).write_text(render_plot(spec), encoding="utf-8")


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
    held = runset.within_layers(*heldout_layers) if heldout_layers else [False] * len(runset)
    by_seed: dict[int, list[tuple[float, float]]] = {}
    held_pts: list[tuple[float, float]] = []
    xs = [float(s.params) for s in runset.scales]
    for r, k, h in zip(runset.records, runset.code.tolist(), held):
        pt = (xs[k], float(r.value))
        if h:
            held_pts.append(pt)
        else:
            by_seed.setdefault(r.pretrain_seed, []).append(pt)
    groups = [
        ScatterGroup(label=f"pretrain seed {s}", points=tuple(pts))
        for s, pts in sorted(by_seed.items())
    ]
    if held_pts:
        groups.append(ScatterGroup(label="held out", points=tuple(held_pts), held_out=True))
    return PlotSpec(
        title=title if title is not None else f"{runset.task}/{runset.family}",
        x_label="parameters",
        y_label=runset.metric,
        groups=tuple(groups),
        fit=fit,
        band=band,
    )
