"""Host-speed calibration: fixed kernels interleaved with measured work.

The benchmark's host is a shared machine whose speed drifts by tens of
percent over tens of seconds.  Every time metric is therefore rescaled to
a nominal host: ``t_nominal = t * (NOMINAL_S / measured_s) ** SENSITIVITY``,
where ``measured_s`` is the kernels' time in the calibration slices taken
around the measured work, and ``NOMINAL_S`` is their time on the host the
benchmark was defined on.

Slices are short (tens of milliseconds) and are taken at most
``SPACING_S`` apart; callers exclude the time spent in them from every
measured op.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
import time

import numpy as np

__all__ = ["NOMINAL_S", "Calibrator", "kernel_times"]

#: geometric-mean kernel time (seconds) on the reference host: a 2-core
#: shared x86-64 VM, Python 3.11, NumPy 2.4
NOMINAL_S = 0.0022

#: repetitions of each kernel per calibration slice (median taken)
REPS = 3

#: seconds between calibration slices taken from inside measured work
SPACING_S = 1.0

#: seconds around an interval whose slices set its speed factor
WINDOW_S = 5.0

#: how strongly the workloads' times follow the kernels' between host
#: states: measured on the reference host over ten adapt-paper runs whose
#: kernel speed ranged 1.07-1.44, replay times moved about half as much
#: as the kernels did (the kernels are small and cache-resident, the
#: workloads are not).  A factor is ``(NOMINAL_S / measured) ** SENSITIVITY``.
SENSITIVITY = 0.5

_BIG = np.random.default_rng(0).random(200_000)


def _interpreter() -> None:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(8000):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += math.sqrt(i + 1.0)


def _json() -> None:
    table = {i: i * 0.5 for i in range(97)}
    for _ in range(10):
        json.loads(json.dumps(table, sort_keys=True))


def _small_arrays() -> None:
    arr = np.arange(1024.0)
    for _ in range(150):
        arr = np.sqrt(arr * 1.0001 + 1.0)


def _large_arrays() -> None:
    for _ in range(3):
        np.sort(_BIG).sum()
        (_BIG * 1.5 + 2.0).sum()


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _objects() -> None:
    points = [_Point(i, 2 * i) for i in range(5000)]
    points.sort(key=lambda p: -p.b)
    sum(p.a for p in points)


#: the calibration kernels: interpreter loops, JSON, small and large NumPy
#: arrays, objects and sorting — the mix the adaptive loop and the server
#: spend their time in.  Host slowdowns hit these unequally, so a slice
#: reports their geometric mean.
KERNELS = (_interpreter, _json, _small_arrays, _large_arrays, _objects)


def kernel_times() -> list[float]:
    """Each of :data:`KERNELS`' median time over :data:`REPS` runs."""
    out = []
    for fn in KERNELS:
        reps = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            fn()
            reps.append(time.perf_counter() - t0)
        out.append(statistics.median(reps))
    return out


class Calibrator:
    """Records calibration slices and answers speed factors for intervals.

    ``sample()`` runs one slice and returns its duration, which callers
    subtract from the op they are timing.  ``factor(t0, t1)`` is the
    nominal-host factor for work done in the interval ``[t0, t1]``.
    """

    def __init__(self, offset_s: float = 0.0) -> None:
        self.times: list[float] = []
        #: per slice: the geometric mean of the kernels' times, and each one's
        self.values: list[float] = []
        self.parts: list[list[float]] = []
        self._next = time.perf_counter() + offset_s

    def sample(self) -> float:
        """Run one calibration slice; returns the wall seconds it took."""
        t0 = time.perf_counter()
        parts = kernel_times()
        t1 = time.perf_counter()
        self.times.append(0.5 * (t0 + t1))
        self.parts.append(parts)
        self.values.append(math.exp(statistics.fmean(map(math.log, parts))))
        self._next = t1 + SPACING_S
        return t1 - t0

    def maybe_sample(self) -> float:
        """Take a slice if one is due; returns the seconds it took."""
        return self.sample() if time.perf_counter() >= self._next else 0.0

    def factor(self, t0: float, t1: float) -> float:
        """Nominal-host factor for work done between ``t0`` and ``t1``.

        Uses the median of the slices within ``WINDOW_S`` of the interval
        (at least the ones bracketing it): the host drifts over tens of
        seconds, while a single slice can catch a momentary stall.
        """
        if not self.values:
            raise RuntimeError("no calibration slice taken")
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        lo = min(lo, max(bisect.bisect_right(self.times, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(self.times, t1) + 1, len(self.times)))
        return (NOMINAL_S / statistics.median(self.values[lo:hi])) ** SENSITIVITY

    def speed(self) -> float:
        """The run's mean nominal-host factor (above 1: a fast host)."""
        return (NOMINAL_S / statistics.fmean(self.values)) ** SENSITIVITY

    def kernel_ms(self) -> dict[str, float]:
        """Each kernel's median time over the run, in milliseconds."""
        return {fn.__name__.lstrip("_"): 1e3 * statistics.median(column)
                for fn, column in zip(KERNELS, zip(*self.parts))}
