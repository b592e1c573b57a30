"""Convergence diagnostics for logged evaluation-loss curves.

Early stopping is evaluated post hoc over a recorded curve: patience counts
consecutive evaluations without sufficient improvement, where each curve
point is one evaluation (callers with a fixed evaluation interval convert
from update steps themselves).  A separately fitted law can then flag a
held-out run whose converged loss sits outside the bootstrap band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .bootstrap import BootstrapConfig
from .errors import DataError
from .predict import extrapolate
from .records import ParsedChunk, RunSet, ScaleSpec, open_csv, paused_gc

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
        for _, message in _faults(self.steps, self.losses):
            raise DataError(message)


def _faults(steps: Sequence[int], losses: Sequence[float]):
    """(index, message) of the first point that breaks each rule of a curve,
    in the order the rules are checked: steps strictly increasing, then
    losses positive and finite."""
    order = np.array(steps, dtype=object)  # compared as the Python values they are
    for i in np.flatnonzero(order[1:] <= order[:-1])[:1].tolist():
        yield i + 1, f"steps must be strictly increasing, got {steps[i]} then {steps[i + 1]}"
    values = np.array(losses, dtype=float)
    for i in np.flatnonzero(~((values > 0) & np.isfinite(values)))[:1].tolist():
        yield i, f"losses must be positive and finite, got {losses[i]}"


def _curve_types(header: list[str]) -> dict | None:
    """The types ``np.loadtxt`` parses a two-column curve's cells as."""
    return {"step": np.int64, "eval_loss": np.float64} if len(header) == 2 else None


def load_loss_curve(path: str | Path) -> LossCurve:
    """Read a two-column CSV (header ``step,eval_loss`` required) with
    :func:`~scalefit.records.open_csv`, skipping whitespace-only rows.  Its
    two rules read the chunks of a two-column file: a chunk ``np.loadtxt``
    parses, steps as int64 and losses as float64, has its points checked
    with numpy.  The rows ``csv.reader`` reads, and those of a parsed chunk
    whose points break a rule, are converted a row at a time by ``int`` and
    ``float``.  The line reader stops at the first line holding a byte that
    is not UTF-8, a bad row.  The first bad row in file order raises
    DataError naming it: a row that does not parse, whose step does not
    exceed the step before it, or whose loss is not positive and finite,
    checked in that order."""
    path = Path(path)
    steps, losses = [], []
    with open_csv(path, _curve_types) as (header, chunks), paused_gc():
        if header is None or [h.strip() for h in header[:2]] != ["step", "eval_loss"]:
            raise DataError(f"{path.name}: expected CSV header 'step,eval_loss'")
        for where, rows in chunks:
            if isinstance(rows, ParsedChunk):
                step, loss = rows.array["step"], rows.array["eval_loss"]
                rising = (not steps or steps[-1] < int(step[0])) and (step[1:] > step[:-1]).all()
                if rising and (np.isfinite(loss) & (loss > 0)).all():
                    steps += step.tolist()
                    losses += loss.tolist()
                    continue
                rows = rows.rows()
            start, error, parsed = len(steps), None, []  # parsed: the row numbers of the chunk's points
            for number, row in zip(where.tolist(), rows):
                if not any(map(str.strip, row)):
                    continue
                try:
                    step, loss = int(row[0]), float(row[1])
                except (ValueError, IndexError):
                    error = DataError(f"row {number}: expected 'step,eval_loss' integers/floats")
                    break
                steps.append(step)
                losses.append(loss)
                parsed.append(number)
            # The rules on the chunk's points and the last point before them, which passed.
            before = max(start - 1, 0)
            for index, message in sorted(_faults(steps[before:], losses[before:]), key=operator.itemgetter(0))[:1]:
                raise DataError(f"row {parsed[before + index - start]}: {message}")
            if error is not None:
                raise error
    if not steps:
        return LossCurve(steps=(), losses=())  # raises: a curve has a point
    curve = object.__new__(LossCurve)  # each point is checked above: not again in __post_init__
    vars(curve).update(steps=tuple(steps), losses=tuple(losses))
    return curve


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
        if not math.isfinite(self.min_decrease):
            raise DataError(f"min_decrease must be finite, got {self.min_decrease}")


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
    """A policy and where its replay stopped (see :class:`EarlyStopResult`)."""

    policy: EarlyStopPolicy
    stop_index: int
    best_index: int
    loss_at_best: float
    stopped: bool


def compare_policies(curve: LossCurve, policies: Sequence[EarlyStopPolicy]) -> list[PolicyOutcome]:
    """Evaluate several stopping policies on one curve, sorted by patience."""
    ordered = sorted(policies, key=lambda p: (p.patience, p.min_decrease))
    replays = [(policy, early_stop(curve, policy)) for policy in ordered]
    return [PolicyOutcome(p, r.stop_index, r.best_index, r.best_loss, r.stopped) for p, r in replays]


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Where an observed loss landed relative to the band, widened by ``REL_TOL``."""

    scale: ScaleSpec
    observed: float
    predicted: float
    band: tuple[float, float]
    flag: str = field(init=False)  # consistent | suspect_undertrained | suspect_overfit_fit

    def __post_init__(self) -> None:
        lo, hi = self.band
        if self.observed > hi * (1.0 + REL_TOL):
            flag = "suspect_undertrained"
        elif self.observed < lo * (1.0 - REL_TOL):
            flag = "suspect_overfit_fit"
        else:
            flag = "consistent"
        object.__setattr__(self, "flag", flag)


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
    (target,) = extrapolate(runset, held_out_scale, cfg).targets
    return ConvergenceVerdict(held_out_scale, observed, target.predicted, target.band)
