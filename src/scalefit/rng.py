"""Deterministic counter-based random substreams.

Each (seed, stream) pair keys an independent Philox generator, so stream i
can be opened directly without generating streams 0..i-1 first.  Consumers
that assign one stream per unit of work (a fixed block of bootstrap
replicates, a synthetic scale, a Monte Carlo trial) therefore produce
identical draws whether the units run serially, in parallel, or out of
order.

:class:`Substreams` opens the streams of one seed on one Philox generator,
re-keyed in place for each stream, without building a new generator per
stream; :func:`substream` opens one stream on a generator of its own.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

_MASK64 = (1 << 64) - 1


class Substreams:
    """The substreams of one seed, opened one at a time on one generator.

    ``open(stream)`` moves the generator to the start of that stream: the
    128-bit Philox key ``[stream, seed]`` (low word first), a zero counter and
    empty buffers, the state of a new ``Philox(key=(seed << 64) | stream)``.
    The key is the concatenation of the two 64-bit values, so distinct
    (seed, stream) pairs never share a stream; a seed outside ``[0, 2**64)``
    is rejected, not wrapped onto another seed's key.  Every call returns
    the same generator, so a stream is read before the next is opened, and
    each thread needs its own instance.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise DataError(f"seed must be in [0, 2**64), got {seed}")
        self.seed = seed
        self.rng = np.random.Generator(np.random.Philox(key=seed << 64))

    def open(self, stream: int) -> np.random.Generator:
        self.rng.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (stream & _MASK64, self.seed)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.rng


def substream(seed: int, stream: int) -> np.random.Generator:
    """Return a new generator for substream ``stream`` of ``seed`` (see :class:`Substreams`)."""
    return Substreams(seed).open(stream)
