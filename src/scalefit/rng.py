"""Deterministic counter-based random substreams.

Each (seed, stream) pair keys an independent Philox generator, so stream i
can be opened directly without generating streams 0..i-1 first.  Consumers
that assign one stream per unit of work (a fixed block of bootstrap
replicates, a synthetic scale, a Monte Carlo trial) therefore produce
identical draws whether the units run serially, in parallel, or out of
order.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_MASK64 = (1 << 64) - 1


def substream(seed: int, stream: int) -> np.random.Generator:
    """Return the generator for substream ``stream`` of ``seed``.

    The 128-bit Philox key is the concatenation of the two 64-bit values,
    so distinct (seed, stream) pairs never share a stream; a seed outside
    ``[0, 2**64)`` is rejected, not wrapped onto another seed's key.
    """
    if not 0 <= seed <= _MASK64:
        raise DataError(f"seed must be in [0, 2**64), got {seed}")
    key = (seed << 64) | (stream & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))
