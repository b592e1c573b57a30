"""Host-speed adjustment of the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed swings by
up to ~2x, within a second and between runs, as other tenants' load comes
and goes.  Process CPU time tracks wall time through those swings, so
neither clock removes them.  ``Gauge`` samples the host's speed with a fixed
reference kernel, which does not touch scalefit: a few times right before
and right after each timed interval, and every ``SAMPLE_EVERY_S`` during it
from a ``SIGALRM`` handler, which runs in the main thread between bytecodes.
The handlers' time is taken out of the interval, and the rest is rescaled
to the speed at which the kernel takes ``REFERENCE_KERNEL_MS``:

    adjusted = (measured - sampling) * REFERENCE_KERNEL_MS * mean(1 / kernel)

A change to scalefit moves the measured time and leaves the kernel alone,
so it moves the adjusted time by the same factor.  A swing of the host
moves both and cancels.  The raw times are printed next to the adjusted
ones in the run's log.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import time

import numpy as np

# Kernel time, in ms, of the host speed that adjusted timings are given at;
# roughly this host's median, so adjusted and raw figures are close.
REFERENCE_KERNEL_MS = 0.35
SAMPLE_EVERY_S = 0.04
EDGE_SAMPLES = 3

_RECORD = json.dumps(
    {"task": "mnli", "family": "mlm", "layers": 8, "hidden": 256, "seed": 3, "eval_loss": 2.512}
)


def kernel() -> float:
    """Fixed work in the mix scalefit does: small numpy draws and products,
    Python arithmetic, and JSON record parsing."""
    rng = np.random.Generator(np.random.Philox(key=7))
    x = np.linspace(0.0, 1.0, 32)
    acc = 0.0
    for _ in range(25):
        acc += float(x @ rng.normal(size=32))
        rec = json.loads(_RECORD)
        acc += sum(v for v in rec.values() if isinstance(v, (int, float)))
    return acc


def kernel_ms() -> float:
    """One timed kernel run, after an untimed one that brings its code and
    data back into cache, with the cyclic collector held off so it cannot
    charge the program's garbage to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        start = time.perf_counter()
        kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Measures intervals in raw and speed-adjusted seconds.

    With ``sample_during`` false, only the samples around an interval are
    taken, so the code being timed runs undisturbed.
    """

    def __init__(self, sample_during: bool = True):
        self.sample_during = sample_during
        self.kernel_ms: list = []
        self._interval: list = []
        self._handled: list = []

    def _edge(self) -> None:
        self._interval.extend(kernel_ms() for _ in range(EDGE_SAMPLES))

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._interval.append(kernel_ms())
        self._handled.append((start, time.perf_counter() - start))

    def time(self, fn) -> tuple:
        """Runs ``fn()``; returns (raw seconds, adjusted seconds, its result).

        Raw seconds leave out the time the sampling took.
        """
        self._interval, self._handled = [], []
        self._edge()
        if self.sample_during:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            if self.sample_during:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = end - start - sum(took for at, took in self._handled if at < end)
        self._edge()
        self.kernel_ms.extend(self._interval)
        rate = statistics.fmean(1 / k for k in self._interval)
        return raw, raw * REFERENCE_KERNEL_MS * rate, result
