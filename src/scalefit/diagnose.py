"""Convergence diagnostics for logged evaluation-loss curves.

Early stopping is evaluated post hoc over a recorded curve: patience counts
consecutive evaluations without sufficient improvement, where each curve
point is one evaluation (callers with a fixed evaluation interval convert
from update steps themselves).  A separately fitted law can then flag a
held-out run whose converged loss sits outside the bootstrap band.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .bootstrap import BootstrapConfig
from .errors import DataError
from .predict import extrapolate
from .records import RunSet, ScaleSpec

# Relative slack on the band edges, so that data lying exactly on the law is
# never flagged for float roundoff.
REL_TOL = 1e-9


@dataclass(frozen=True)
class LossCurve:
    """Evaluation loss at strictly increasing step numbers."""

    steps: tuple[int, ...]
    losses: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.steps:
            raise DataError("loss curve must have at least one point")
        if len(self.steps) != len(self.losses):
            raise DataError("steps and losses must have equal length")
        for a, b in zip(self.steps, self.steps[1:]):
            if b <= a:
                raise DataError(f"steps must be strictly increasing, got {a} then {b}")
        for loss in self.losses:
            if not (loss > 0 and math.isfinite(loss)):
                raise DataError(f"losses must be positive and finite, got {loss}")

    def __len__(self) -> int:
        return len(self.steps)


def load_loss_curve(path: str | Path) -> LossCurve:
    """Read a two-column CSV (header ``step,eval_loss`` required)."""
    path = Path(path)
    steps = []
    losses = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:2]] != ["step", "eval_loss"]:
                raise DataError(f"{path.name}: expected CSV header 'step,eval_loss'")
            for row in reader:
                if not row or not any(cell.strip() for cell in row):
                    continue
                where = f"row {reader.line_num}"
                try:
                    steps.append(int(row[0]))
                    losses.append(float(row[1]))
                except (ValueError, IndexError):
                    raise DataError(f"{where}: expected 'step,eval_loss' integers/floats") from None
        except csv.Error as exc:
            raise DataError(f"row {reader.line_num}: {exc}") from None
    return LossCurve(steps=tuple(steps), losses=tuple(losses))


@dataclass(frozen=True)
class EarlyStopPolicy:
    """Consecutive-evaluation patience and the improvement it requires."""

    patience: int
    min_decrease: float = 0.0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise DataError(f"patience must be >= 1, got {self.patience}")
        if self.min_decrease < 0:
            raise DataError(f"min_decrease must be >= 0, got {self.min_decrease}")


@dataclass(frozen=True)
class EarlyStopResult:
    stop_index: int
    best_index: int
    stopped: bool
    best_loss: float


def early_stop(curve: LossCurve, policy: EarlyStopPolicy) -> EarlyStopResult:
    """Scan the curve and report where the policy would have stopped.

    An evaluation improves iff its loss is strictly below best - min_decrease
    (ties count as non-improving); the counter of consecutive non-improving
    evaluations resets on improvement and stopping occurs the first time it
    reaches the patience.  ``best_index`` is the argmin seen up to the stop,
    first occurrence on ties.
    """
    losses = curve.losses
    best = losses[0]
    best_index = 0
    counter = 0
    for i in range(1, len(losses)):
        qualifies = losses[i] < best - policy.min_decrease
        if losses[i] < best:
            best = losses[i]
            best_index = i
        if qualifies:
            counter = 0
        else:
            counter += 1
            if counter >= policy.patience:
                return EarlyStopResult(stop_index=i, best_index=best_index, stopped=True, best_loss=best)
    return EarlyStopResult(
        stop_index=len(losses) - 1, best_index=best_index, stopped=False, best_loss=best
    )


@dataclass(frozen=True)
class PolicyOutcome:
    policy: EarlyStopPolicy
    stop_index: int
    best_index: int
    loss_at_best: float
    stopped: bool


def compare_policies(curve: LossCurve, policies: Sequence[EarlyStopPolicy]) -> list[PolicyOutcome]:
    """Evaluate several stopping policies on one curve, sorted by patience."""
    rows = []
    for policy in sorted(policies, key=lambda p: (p.patience, p.min_decrease)):
        res = early_stop(curve, policy)
        rows.append(
            PolicyOutcome(
                policy=policy,
                stop_index=res.stop_index,
                best_index=res.best_index,
                loss_at_best=curve.losses[res.best_index],
                stopped=res.stopped,
            )
        )
    return rows


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Where an observed loss landed relative to the fitted band."""

    scale: ScaleSpec
    observed: float
    predicted: float
    band: tuple[float, float]
    flag: str  # consistent | suspect_undertrained | suspect_overfit_fit


def flag_undertrained(
    runset: RunSet, held_out_scale: ScaleSpec, observed: float, cfg: BootstrapConfig
) -> ConvergenceVerdict:
    """Check a held-out loss against the band fitted on the other scales.

    A minimized loss above the band's upper edge suggests the run is
    under-trained; one below the lower edge suggests the fit itself is off.
    """
    if runset.direction != "minimize":
        raise DataError("under-training flags are defined only for minimized metrics")
    if not (observed > 0 and math.isfinite(observed)):
        raise DataError("observed value must be positive and finite")
    if (runset.params == held_out_scale.params).any():
        raise DataError(
            f"run set must exclude the held-out scale (params={held_out_scale.params})"
        )
    target = extrapolate(runset, held_out_scale, cfg).targets[0]
    lo, hi = target.band
    if observed > hi * (1.0 + REL_TOL):
        flag = "suspect_undertrained"
    elif observed < lo * (1.0 - REL_TOL):
        flag = "suspect_overfit_fit"
    else:
        flag = "consistent"
    return ConvergenceVerdict(
        scale=held_out_scale,
        observed=observed,
        predicted=target.predicted,
        band=(lo, hi),
        flag=flag,
    )
