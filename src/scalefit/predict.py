"""Predictive-power evaluation and model selection from fitted laws.

Relative errors keep their sign for single targets: negative means the
prediction overshot the observed value, which for a maximized metric reads
as an over-optimistic extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import BootstrapConfig, bootstrap_band
from .errors import DataError
from .powerlaw import FitResult, fit_line, predict_at
from .records import RunSet, ScaleSpec

LayerRange = tuple[int, int]


def relative_error(actual: float, predicted: float) -> float:
    """Signed (actual - predicted) / actual; negative when the prediction is high."""
    if not (actual > 0 and math.isfinite(actual)):
        raise DataError("actual value must be positive and finite")
    if not math.isfinite(predicted):
        raise DataError("predicted value must be finite")
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

    ``mre`` is the mean of the targets' absolute relative errors, and is
    None unless there are targets and every one carries an actual value.
    """

    fit: FitResult
    targets: tuple[TargetPrediction, ...]
    mre: float | None = field(init=False)

    def __post_init__(self) -> None:
        errors = [t.relative_error for t in self.targets]
        mre = None if not errors or None in errors else float(np.mean(np.abs(errors)))
        object.__setattr__(self, "mre", mre)


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
    """Two-family comparison at a target scale, gated on goodness of fit.

    A family passes its gate iff its R^2 reaches ``r2_threshold``.  Gaps are
    b - a; the actual gap and its sign agreement need both actual values.
    """

    family_a: str
    family_b: str
    fit_a: FitResult
    fit_b: FitResult
    r2_threshold: float
    gate_a: bool = field(init=False)
    gate_b: bool = field(init=False)
    reliable: bool = field(init=False)
    predicted_a: float
    predicted_b: float
    band_a: tuple[float, float]
    band_b: tuple[float, float]
    predicted_gap: float = field(init=False)
    actual_a: float | None = None
    actual_b: float | None = None
    actual_gap: float | None = field(init=False)
    sign_agreement: bool | None = field(init=False)

    def __post_init__(self) -> None:
        gate_a, gate_b = (fit.r_squared >= self.r2_threshold for fit in (self.fit_a, self.fit_b))
        gap = self.predicted_b - self.predicted_a
        actual_gap = sign_agreement = None
        if self.actual_a is not None and self.actual_b is not None:
            actual_gap = self.actual_b - self.actual_a
            sign_agreement = (gap >= 0) == (actual_gap >= 0)
        derived = dict(gate_a=gate_a, gate_b=gate_b, reliable=gate_a and gate_b, predicted_gap=gap,
                       actual_gap=actual_gap, sign_agreement=sign_agreement)
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def select_model(
    runset_a: RunSet,
    runset_b: RunSet,
    target: ScaleSpec,
    cfg: BootstrapConfig,
    r2_threshold: float = 0.95,
    actual_a: float | None = None,
    actual_b: float | None = None,
) -> SelectionReport:
    """Compare two method families by extrapolating both to ``target``; the
    :class:`SelectionReport` derives the gates and gaps."""
    if not 0.0 < r2_threshold <= 1.0:
        raise DataError(f"r2_threshold must be in (0, 1], got {r2_threshold}")
    for key in ("metric", "task", "direction"):
        a, b = getattr(runset_a, key), getattr(runset_b, key)
        if a != b:
            raise DataError(f"{key} mismatch between families: {a!r} vs {b!r}")

    rep_a = extrapolate(runset_a, target, cfg, actual=actual_a)
    rep_b = extrapolate(runset_b, target, cfg, actual=actual_b)
    (t_a,), (t_b,) = rep_a.targets, rep_b.targets
    return SelectionReport(
        family_a=runset_a.family, family_b=runset_b.family, fit_a=rep_a.fit, fit_b=rep_b.fit,
        r2_threshold=r2_threshold, predicted_a=t_a.predicted, predicted_b=t_b.predicted,
        band_a=t_a.band, band_b=t_b.band, actual_a=actual_a, actual_b=actual_b,
    )
