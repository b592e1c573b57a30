"""Predictive-power evaluation and model selection from fitted laws.

Relative errors keep their sign for single targets: negative means the
prediction overshot the observed value, which for a maximized metric reads
as an over-optimistic extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_band
from .errors import DataError
from .powerlaw import FitResult, fit_line, predict_at
from .records import RunSet, ScaleSpec

LayerRange = tuple[int, int]


def mean_relative_error(actual: Sequence[float], predicted: Sequence[float]) -> float:
    """Mean of |actual - predicted| / actual over paired values."""
    a = np.asarray(list(actual), dtype=float)
    p = np.asarray(list(predicted), dtype=float)
    if a.size != p.size:
        raise DataError(f"length mismatch: {a.size} actual values vs {p.size} predictions")
    if a.size == 0:
        raise DataError("need at least one (actual, predicted) pair")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise DataError("values must be finite")
    if np.any(a <= 0):
        raise DataError("actual values must be positive")
    return float(np.mean(np.abs(a - p) / a))


def relative_error(actual: float, predicted: float) -> float:
    """Signed (actual - predicted) / actual; negative when the prediction is high."""
    if not (actual > 0 and math.isfinite(actual)):
        raise DataError("actual value must be positive and finite")
    return (actual - predicted) / actual


@dataclass(frozen=True)
class TargetPrediction:
    """Prediction at one extrapolation abscissa, with optional truth and band.

    ``relative_error`` is derived from ``actual`` and ``predicted``, and is
    None when no actual value is given.
    """

    x: float
    predicted: float
    actual: float | None = None
    band: tuple[float, float] | None = None
    relative_error: float | None = field(init=False)

    def __post_init__(self) -> None:
        re = None if self.actual is None else relative_error(self.actual, self.predicted)
        object.__setattr__(self, "relative_error", re)


@dataclass(frozen=True)
class PredictionReport:
    """Fit, per-target predictions, and the mean relative error over targets.

    ``mre`` is derived from the targets, and is None unless every target
    carries an actual value.
    """

    fit: FitResult
    targets: tuple[TargetPrediction, ...]
    mre: float | None = field(init=False)

    def __post_init__(self) -> None:
        actual = [t.actual for t in self.targets]
        predicted = [t.predicted for t in self.targets]
        mre = None if None in actual else mean_relative_error(actual, predicted)
        object.__setattr__(self, "mre", mre)

    @property
    def n_targets(self) -> int:
        return len(self.targets)


def holdout_eval(runset: RunSet, train_filter: LayerRange, test_filter: LayerRange) -> PredictionReport:
    """Fit on one depth range and score predictions on a disjoint one.

    The fit uses every record in the train range; the per-scale actual in
    the test range is the mean over that scale's runs, and the report's MRE
    averages over test scales.
    """
    train = runset.within_layers(*train_filter)
    test = runset.within_layers(*test_filter)
    if train_filter[0] <= test_filter[1] and test_filter[0] <= train_filter[1]:
        raise DataError(
            f"train and test layer ranges overlap: {train_filter} vs {test_filter}"
        )
    if not train.any():
        raise DataError(f"train layer range {train_filter} matches no records")
    if not test.any():
        raise DataError(f"test layer range {test_filter} matches no records")
    fit = fit_line(runset.points()[train])

    targets = []
    for k in np.unique(runset.code[test]):
        x = float(runset.scales[k].params)
        actual = float(np.mean(runset.values[runset.code == k]))
        targets.append(TargetPrediction(x=x, predicted=predict_at(fit, x), actual=actual))
    return PredictionReport(fit=fit, targets=tuple(targets))


def extrapolate(
    runset: RunSet, target: ScaleSpec, cfg: BootstrapConfig, actual: float | None = None
) -> PredictionReport:
    """Predict at a target scale with a bootstrap interval around the point.

    When an actual value is supplied the report carries its signed relative
    error (and MRE, which for one target is just its absolute value).
    """
    x = float(target.params)
    fit = fit_line(runset.points())
    band = bootstrap_band(runset, cfg, (x,)).point_band[0][1:]
    target_row = TargetPrediction(x=x, predicted=predict_at(fit, x), actual=actual, band=band)
    return PredictionReport(fit=fit, targets=(target_row,))


@dataclass(frozen=True)
class SelectionReport:
    """Two-family comparison at a target scale, gated on goodness of fit."""

    family_a: str
    family_b: str
    fit_a: FitResult
    fit_b: FitResult
    r2_threshold: float
    gate_a: bool
    gate_b: bool
    reliable: bool
    predicted_a: float
    predicted_b: float
    band_a: tuple[float, float]
    band_b: tuple[float, float]
    predicted_gap: float
    actual_a: float | None
    actual_b: float | None
    actual_gap: float | None
    sign_agreement: bool | None


def select_model(
    runset_a: RunSet,
    runset_b: RunSet,
    target: ScaleSpec,
    cfg: BootstrapConfig,
    r2_threshold: float = 0.95,
    actual_a: float | None = None,
    actual_b: float | None = None,
) -> SelectionReport:
    """Compare two method families by extrapolating both to ``target``.

    The gap is predicted_b - predicted_a in raw metric units.  Each family
    passes the gate iff its fit's R^2 reaches ``r2_threshold``; the
    comparison is flagged unreliable if either gate fails.  When actual
    values for both families are supplied, the report also states whether
    the predicted gap has the same sign as the realized one.
    """
    if not 0.0 < r2_threshold <= 1.0:
        raise DataError(f"r2_threshold must be in (0, 1], got {r2_threshold}")
    if runset_a.metric != runset_b.metric:
        raise DataError(
            f"metric mismatch between families: {runset_a.metric!r} vs {runset_b.metric!r}"
        )
    if runset_a.task != runset_b.task:
        raise DataError(
            f"task mismatch between families: {runset_a.task!r} vs {runset_b.task!r}"
        )
    if runset_a.direction != runset_b.direction:
        raise DataError(
            f"direction mismatch between families: {runset_a.direction!r} vs "
            f"{runset_b.direction!r}"
        )

    rep_a = extrapolate(runset_a, target, cfg, actual=actual_a)
    rep_b = extrapolate(runset_b, target, cfg, actual=actual_b)
    fit_a, fit_b = rep_a.fit, rep_b.fit
    gate_a = fit_a.r_squared >= r2_threshold
    gate_b = fit_b.r_squared >= r2_threshold
    pred_a = rep_a.targets[0].predicted
    pred_b = rep_b.targets[0].predicted
    predicted_gap = pred_b - pred_a
    actual_gap = None
    sign_agreement = None
    if actual_a is not None and actual_b is not None:
        actual_gap = actual_b - actual_a
        sign_agreement = (predicted_gap >= 0) == (actual_gap >= 0)
    return SelectionReport(
        family_a=runset_a.family,
        family_b=runset_b.family,
        fit_a=fit_a,
        fit_b=fit_b,
        r2_threshold=r2_threshold,
        gate_a=gate_a,
        gate_b=gate_b,
        reliable=gate_a and gate_b,
        predicted_a=pred_a,
        predicted_b=pred_b,
        band_a=rep_a.targets[0].band,
        band_b=rep_b.targets[0].band,
        predicted_gap=predicted_gap,
        actual_a=actual_a,
        actual_b=actual_b,
        actual_gap=actual_gap,
        sign_agreement=sign_agreement,
    )
