"""Least-squares power-law fitting in log-log space.

A fit models ln(y) = alpha * ln(x) + beta, minimizing the squared loss over
the log-transformed points in closed form.  Goodness of fit is the familiar
1 - SS_res/SS_tot, computable either in the optimized (log) space or over
the raw values; the log space is the default because it is the space in
which the coefficients were chosen.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError, DegenerateDataError
from .records import RunSet

Points = Iterable[tuple[float, float]]
# The spaces goodness of fit can be computed in.
RESIDUAL_SPACES = ("log", "linear")


@dataclass(frozen=True)
class FitResult:
    """Fitted power-law coefficients and goodness of fit.

    The prediction at abscissa x is exp(beta) * x**alpha.  ``min_layers``
    records the depth filter the fit was computed under, if any.
    """

    alpha: float
    beta: float
    r_squared: float
    ss_res: float
    ss_tot: float
    n_points: int
    residual_space: str = "log"
    min_layers: int | None = None


def _validate_points(points: Points) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(points) if not isinstance(points, np.ndarray) else points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DataError("points must be (x, y) pairs")
    if arr.shape[0] < 2:
        raise DataError(f"need at least 2 points, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise DataError("points must be finite")
    if np.any(arr <= 0):
        raise DataError("points must have positive coordinates")
    return arr[:, 0], arr[:, 1]


def _ols_log(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    # Closed-form ordinary least squares of v on u.  Every sum of products in
    # this module is numpy's own pairwise ``.sum()``, never BLAS: a threaded
    # dot product splits its sum by the thread count, so its bits would
    # depend on the host.
    um = u.mean()
    vm = v.mean()
    du = u - um
    alpha = float((du * (v - vm)).sum() / (du * du).sum())
    return alpha, float(vm - alpha * um)


def _r_squared(obs: np.ndarray, pred: np.ndarray, space: str) -> tuple[float, float, float]:
    """(r_squared, ss_res, ss_tot) of the predictions ``pred`` of ``obs``."""
    with np.errstate(over="ignore", invalid="ignore"):
        res = obs - pred
        ss_res = float((res * res).sum())
        dv = obs - obs.mean()
        ss_tot = 0.0 if np.all(obs == obs[0]) else float((dv * dv).sum())
    if not (np.isfinite(ss_res) and np.isfinite(ss_tot)):
        raise DataError(f"the {space}-space goodness of fit overflows float64")
    if ss_tot == 0.0:
        # Tolerate pure exp/log roundoff when the fit does pass through the
        # constant data.
        if np.sqrt(ss_res / obs.size) <= 1e-12 * max(1.0, abs(float(obs[0]))):
            return 1.0, 0.0, 0.0
        raise DegenerateDataError(
            "goodness-of-fit undefined: zero total variance with nonzero residuals"
        )
    return 1.0 - ss_res / ss_tot, ss_res, ss_tot


def fit_line(points: Points) -> FitResult:
    """Fit ln(y) = alpha*ln(x) + beta by least squares over all points.

    Requires two x values with distinct logarithms.  Constant y yields the exact
    degenerate fit alpha=0, beta=ln(y), with R^2 = 1 by convention (zero
    residuals dominate the otherwise undefined ratio).
    """
    x, y = _validate_points(points)
    u, v = np.log(x), np.log(y)
    if u.min() == u.max():  # distinct x can share a logarithm
        raise DegenerateDataError("need at least 2 distinct x values to fit")
    alpha, beta = (0.0, float(v[0])) if np.all(v == v[0]) else _ols_log(u, v)
    r2, ss_res, ss_tot = _r_squared(v, alpha * u + beta, "log")
    return FitResult(alpha, beta, r2, ss_res, ss_tot, n_points=int(x.size))


def goodness_of_fit(points: Points, fit: FitResult, space: str = "log") -> tuple[float, float, float]:
    """(r_squared, ss_res, ss_tot) of ``fit`` against ``points``.

    In log space residuals are ln(y) - (alpha*ln(x) + beta); in linear space
    they are y - exp(beta)*x**alpha, with the mean taken over raw y.  Zero
    total variance with nonzero residuals is undefined and raises
    :class:`DegenerateDataError` rather than silently returning 0; sums of
    squares that overflow float64 raise :class:`DataError`.
    """
    x, y = _validate_points(points)
    if space not in RESIDUAL_SPACES:
        expected = " or ".join(map(repr, RESIDUAL_SPACES))
        raise DataError(f"unknown residual space {space!r}; expected {expected}")
    with np.errstate(over="ignore", invalid="ignore"):
        log_pred = fit.alpha * np.log(x) + fit.beta
        obs, pred = (np.log(y), log_pred) if space == "log" else (y, np.exp(log_pred))
    return _r_squared(obs, pred, space)


def predict_at(fit: FitResult, x):
    """Evaluate the fitted law exp(beta)*x**alpha at x (scalar or array)."""
    xa = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xa)) or np.any(xa <= 0):
        raise DataError("x must be positive and finite")
    with np.errstate(over="ignore"):
        out = np.exp(fit.beta + fit.alpha * np.log(xa))
    if not np.all(np.isfinite(out)):
        raise DataError("the fitted law overflows float64 at the requested x")
    return float(out) if out.ndim == 0 else out


def fit_runset(runset: RunSet, min_layers: int | None = None, space: str = "log") -> FitResult:
    """Fit a run set, optionally depth-filtered, reporting R^2 in ``space``."""
    pts = runset.points()
    if min_layers is not None:
        pts = pts[runset.within_layers(min_layers)]
        if not len(pts) or pts[:, 0].min() == pts[:, 0].max():
            raise DegenerateDataError(f"min_layers={min_layers} leaves fewer than 2 distinct scales")
    fit = dataclasses.replace(fit_line(pts), min_layers=min_layers)
    if space != "log":
        r2, ss_res, ss_tot = goodness_of_fit(pts, fit, space)
        fit = dataclasses.replace(
            fit, r_squared=r2, ss_res=ss_res, ss_tot=ss_tot, residual_space=space
        )
    return fit
