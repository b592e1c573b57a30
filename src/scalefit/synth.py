"""Synthetic experiment generator with two-level noise.

Generated values follow exp(log_c + alpha*ln(N) + u + eps) where u is drawn
once per scale (pretraining-level noise) and eps once per run (finetuning
noise), both in log space so values stay positive.  This is the ground-truth
oracle used to validate fitting, bootstrap coverage, extrapolation, and
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .records import _CHECKS, DIRECTIONS, RecordTable, RunSet, ScaleSpec, _check_value, group
from .rng import Substreams

_SQRT3 = math.sqrt(3.0)
# The distributions the two noise levels can be drawn from.
NOISE_MODELS = ("normal", "uniform")


@dataclass(frozen=True)
class SynthSpec:
    """Ground-truth law, scale ladder, and noise levels for generation."""

    true_alpha: float
    true_log_c: float
    scales: tuple[ScaleSpec, ...]
    seeds_per_scale: int
    sigma_pre: float = 0.0
    sigma_fin: float = 0.0
    rng_seed: int = 0
    direction: str = "minimize"
    noise: str = "normal"
    task: str = "synthetic"
    family: str = "synthetic"
    metric: str = "score"

    def __post_init__(self) -> None:
        if not self.scales:
            raise DataError("scales must be nonempty")
        if self.seeds_per_scale < 1:
            raise DataError(f"seeds_per_scale must be >= 1, got {self.seeds_per_scale}")
        law = (self.true_alpha, self.true_log_c, self.sigma_pre, self.sigma_fin)
        if not all(math.isfinite(v) for v in law):
            raise DataError("true_alpha, true_log_c and the noise levels must be finite")
        if self.sigma_pre < 0 or self.sigma_fin < 0:
            raise DataError("noise levels must be nonnegative")
        if self.direction not in DIRECTIONS:
            raise DataError(f"unknown direction token {self.direction!r}")
        if self.noise not in NOISE_MODELS:
            raise DataError(f"unknown noise model {self.noise!r}")
        for field in ("task", "family", "metric"):  # the checks a label read from a record file passes
            _CHECKS[field](getattr(self, field))


@dataclass(frozen=True)
class GroundTruth:
    """The law and per-scale offsets a synthetic run set was drawn from."""

    alpha: float
    log_c: float
    scale_offsets: tuple[float, ...]

    def value_at(self, params: float) -> float:
        """Noise-free law value at a parameter count."""
        return math.exp(self.log_c + self.alpha * math.log(params))


def _draws(rng, sigma: float, n: int, noise: str) -> np.ndarray:
    # Uniform draws are scaled to the same variance as the normal ones.
    if noise == "uniform":
        return rng.uniform(-_SQRT3 * sigma, _SQRT3 * sigma, size=n)
    return rng.normal(0.0, sigma, size=n) if sigma > 0 else np.zeros(n)


def generate(spec: SynthSpec) -> tuple[RunSet, GroundTruth]:
    """Draw one synthetic run set plus the ground truth it came from.

    Each scale consumes its own random substream, so output is deterministic
    for a fixed ``rng_seed`` regardless of generation order.  The draws fill
    the run set's columns; equal scales in ``spec.scales`` make one scale.
    """
    scales: dict[ScaleSpec, int] = {}
    code, values, offsets, overflow = [], [], [], None
    streams = Substreams(spec.rng_seed)
    for i, scale in enumerate(spec.scales):
        rng = streams.open(i)
        u = float(_draws(rng, spec.sigma_pre, 1, spec.noise)[0])
        eps = _draws(rng, spec.sigma_fin, spec.seeds_per_scale, spec.noise)
        offsets.append(u)
        base = spec.true_log_c + spec.true_alpha * math.log(scale.params) + u
        try:  # math.exp, as np.exp can differ in the last bit; an overflow keeps the values before it
            values.extend(map(math.exp, (base + eps).tolist()))
        except OverflowError:
            overflow = DataError(f"synthetic value at params={scale.params} overflows float64")
            break
        code.append(scales.setdefault(scale, len(scales)))
    column = np.array(values)
    bad = ~(np.isfinite(column) & (column > 0))
    if bad.any():  # the record value check's error for the first bad value, which precedes any overflow
        _check_value(values[int(np.argmax(bad))])
    if overflow:
        raise overflow
    fin = np.tile(np.arange(spec.seeds_per_scale, dtype=np.int64), len(code))
    table = RecordTable(
        tuple(scales),
        np.repeat(np.array(code, dtype=np.intp), spec.seeds_per_scale),
        column,
        np.column_stack((np.zeros_like(fin), fin)),
        np.full_like(fin, -1),
        ((spec.task, spec.family, spec.metric, spec.direction),),
        np.zeros(len(fin), dtype=np.intp),
    )
    (runset,) = group(table).values()
    return runset, GroundTruth(alpha=spec.true_alpha, log_c=spec.true_log_c, scale_offsets=tuple(offsets))
