"""Parameter counting, FLOP estimation, and compute-savings arithmetic."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .errors import DataError

if TYPE_CHECKING:  # pragma: no cover
    from .records import ScaleSpec


def param_count(layers: int, hidden: int) -> int:
    """Trainable parameters of an encoder stack, 12 * layers * hidden**2.

    Word embeddings are excluded.  Exact integer arithmetic.
    """
    if layers < 1:
        raise DataError(f"layers must be positive, got {layers}")
    if hidden < 1:
        raise DataError(f"hidden must be positive, got {hidden}")
    return 12 * layers * hidden * hidden


def flops(params: int, tokens: int) -> int:
    """Training FLOPs for forward plus backward passes: 6 * params * tokens."""
    if params < 1:
        raise DataError(f"params must be positive, got {params}")
    if tokens < 0:
        raise DataError(f"tokens must be nonnegative, got {tokens}")
    return 6 * params * tokens


@dataclass(frozen=True)
class ComputeEstimate:
    """Parameter count, tokens observed, and the implied training FLOPs."""

    params: int
    tokens: int
    flops: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flops", flops(self.params, self.tokens))


def savings_ratio(
    small: Sequence["ScaleSpec"],
    large: "ScaleSpec",
    assumption: str = "equal_tokens",
    *,
    small_tokens: Sequence[int] | None = None,
    large_tokens: int | None = None,
) -> float:
    """Compute cost of the large configuration over the small sweep combined.

    Under ``equal_tokens`` every model is assumed to observe the same token
    count, so the ratio reduces to large.params / sum(small params).  Under
    ``supplied_tokens`` the caller provides per-scale token counts and the
    ratio is taken over 6ND FLOPs instead.
    """
    if not small:
        raise DataError("small scale collection must be nonempty")
    if assumption == "equal_tokens":
        return large.params / sum(s.params for s in small)
    if assumption == "supplied_tokens":
        if small_tokens is None or large_tokens is None:
            raise DataError("token counts required under supplied_tokens")
        if len(small_tokens) != len(small):
            raise DataError(
                f"need one token count per small scale: got {len(small_tokens)} "
                f"for {len(small)} scales"
            )
        total_small = sum(flops(s.params, t) for s, t in zip(small, small_tokens))
        return flops(large.params, large_tokens) / total_small
    raise DataError(f"unknown assumption {assumption!r}")
