"""Process-local metrics: counters, gauges and histograms with labels.

Pragma's premise is that runtime management must be driven by measurement.
This module gives the reproduction a measurement substrate of its own: a
:class:`MetricsRegistry` hands out named instruments, optionally
distinguished by label sets (``registry.counter("mc.fanout",
topic="octant-transition")``), and snapshots the whole collection as plain
dictionaries for the JSON exporters.

Instrumented call sites must be free when observability is off, so the
module also defines the shared no-op instrument the :mod:`repro.obs`
helpers return outside a collection window, making
``obs.counter(...).inc()`` a pair of cheap calls with no allocation and
no bookkeeping.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "exponential_bucket_bounds",
    "nearest_rank",
]


def nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of an ascending sequence (0.0 when empty).

    The smallest sample that covers a ``q`` fraction of the samples: the
    ``ceil(q * n)``-th, counting from one.  The one rank rule for exact
    quantiles (timeline summaries, the serving SLO tracker's latency
    ring); a histogram's bucketed quantile never falls below it.
    """
    if not ordered:
        return 0.0
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def exponential_bucket_bounds(
    start: float = 1e-6, factor: float = 2.0, count: int = 48
) -> tuple[float, ...]:
    """Fixed exponential bucket upper bounds: ``start * factor**k``.

    The defaults span 1 µs to ~1.4e8 (seconds or percent alike) in
    power-of-two steps — coarse, but allocation-free at observe time and
    tight enough for p50/p95/p99 tail reporting.
    """
    if start <= 0 or factor <= 1.0 or count < 1:
        raise ValueError(
            f"need start > 0, factor > 1, count >= 1; got "
            f"{start}, {factor}, {count}"
        )
    return tuple(start * factor**k for k in range(count))


#: the bucket layout every histogram shares (values above the last bound
#: land in one overflow bucket)
DEFAULT_BUCKET_BOUNDS = exponential_bucket_bounds()

#: a label set frozen into a dictionary key
_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (events, accumulated seconds).

    Updates are lock-guarded: counters are shared between serving worker
    threads (the server's ``serve.*`` stats), where a lost
    read-modify-write would silently drop an event.
    """

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current accumulated total."""
        return self._value


class Gauge:
    """Point-in-time value that can move both ways (mailbox depth)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: _LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if larger (high-water marks)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Shift the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current gauge reading."""
        return self._value


class Histogram:
    """Streaming summary of an observed distribution.

    Keeps count/sum/min/max plus fixed exponential bucket counts
    (:data:`DEFAULT_BUCKET_BOUNDS`), so tails are reportable without
    storing samples: ``quantile(q)`` answers from the buckets, and
    ``summary()`` carries p50/p95/p99 alongside the moments.  Bucketed
    quantiles are upper-bound estimates — exact to within one bucket
    (a factor-of-two band), clamped into ``[min, max]``.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "bounds", "buckets", "_lock")

    def __init__(
        self,
        name: str,
        labels: _LabelKey = (),
        bounds: tuple[float, ...] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.bounds = bounds
        # one count per bound plus one overflow bucket
        self.buckets = [0] * (len(bounds) + 1)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        with self._lock:
            self.count += 1
            self.total += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v
            self.buckets[bisect_left(self.bounds, v)] += 1

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples seen so far (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Quantile estimate (0.0 when empty).

        The upper bound of the bucket holding the ``q``-th sample,
        clamped into ``[min, max]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.buckets):
            cum += n
            if cum >= target and n:
                bound = (
                    self.bounds[i] if i < len(self.bounds) else self.max
                )
                return min(max(bound, self.min), self.max)
        return self.max

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean/p50/p95/p99 as a plain dict (empty-safe)."""
        if not self.count:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                    "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """Named, labelled instruments with snapshot/reset.

    Instruments are created on first use and cached by
    ``(name, sorted labels)``; repeated lookups return the same object, so
    call sites may either hold a handle or re-look-up each time.
    Thread-safe: creation takes the registry's lock, and every
    read-modify-write update (``inc``, ``set_max``, ``observe``) takes
    its instrument's own lock, so concurrent serve workers lose no
    increment or observation.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}

    def _get(self, table: dict, cls, name: str, labels: dict):
        key = (name, _label_key(labels))
        inst = table.get(key)
        if inst is None:
            with self._lock:
                inst = table.setdefault(key, cls(name, key[1]))
        return inst

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge registered under ``name`` + ``labels``."""
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram registered under ``name`` + ``labels``."""
        return self._get(self._histograms, Histogram, name, labels)

    # -- introspection ---------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Read a counter without creating it (0.0 when absent)."""
        inst = self._counters.get((name, _label_key(labels)))
        return inst.value if inst is not None else 0.0

    def counter_items(self, name: str) -> list[tuple[dict[str, str], float]]:
        """Every ``(labels, value)`` registered under ``name``, sorted."""
        return [
            (dict(labels), c.value)
            for (n, labels), c in sorted(self._counters.items())
            if n == name
        ]

    def sum_counters(self, name: str) -> float:
        """Total over every label set registered under ``name``."""
        return sum(
            c.value for (n, _), c in self._counters.items() if n == name
        )

    def snapshot(self) -> dict:
        """All instruments as nested plain dictionaries (JSON-ready)."""

        def rows(table, value_of):
            out: dict[str, list] = {}
            for (name, labels), inst in sorted(table.items()):
                out.setdefault(name, []).append(
                    {"labels": dict(labels), "value": value_of(inst)}
                )
            return out

        return {
            "counters": rows(self._counters, lambda c: c.value),
            "gauges": rows(self._gauges, lambda g: g.value),
            "histograms": rows(self._histograms, lambda h: h.summary()),
        }

    def reset(self) -> None:
        """Drop every instrument (fresh collection window)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for the disabled path."""

    __slots__ = ()
    name = ""
    labels: _LabelKey = ()
    count = 0
    total = 0.0
    min = math.inf
    max = -math.inf

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def mean(self) -> float:
        return 0.0

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0,
                "p50": 0.0, "p95": 0.0, "p99": 0.0}


_NULL_INSTRUMENT = _NullInstrument()
