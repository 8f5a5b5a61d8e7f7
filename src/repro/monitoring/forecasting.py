"""NWS-style forecasting: simple predictors plus dynamic selection.

Wolski's Network Weather Service (HPDC'97) forecasts each measurement
stream by running a battery of cheap predictors side by side, scoring each
on its trailing *postcast* error (how well it would have predicted the
measurements that actually arrived), and answering queries with the
current best predictor's value.  The ensemble is therefore nonparametric
and self-tuning — exactly the property Pragma's proactive management needs
on a dynamic grid.

Scoring is the expensive part (every predictor forecasts every value), and
most streams are sampled far more often than they are read, so an
ensemble scores on demand: see :class:`ForecasterEnsemble`.
"""

from __future__ import annotations

import abc
import math
from collections import deque

import numpy as np

from repro import obs

__all__ = [
    "Predictor",
    "LastValue",
    "RunningMean",
    "SlidingWindowMean",
    "SlidingMedian",
    "ExponentialSmoothing",
    "AdaptiveMean",
    "AutoRegressive",
    "ForecasterEnsemble",
    "default_ensemble",
]

#: values an ensemble queues unscored before it scores them anyway (the
#: resource monitor's default history), so an unread ensemble holds at
#: most this many
MAX_PENDING = 512


class Predictor(abc.ABC):
    """Incremental one-step-ahead predictor of a scalar series."""

    @abc.abstractmethod
    def update(self, value: float) -> None:
        """Feed the next observed value."""

    @abc.abstractmethod
    def predict(self) -> float:
        """Forecast the next value; raises ``ValueError`` before any update."""

    @property
    def name(self) -> str:
        """Human-readable identifier (class name plus parameters)."""
        return type(self).__name__

    def _require_data(self, have: bool) -> None:
        if not have:
            raise ValueError(f"{self.name} has no data yet")


class LastValue(Predictor):
    """Forecast = most recent observation."""

    def __init__(self) -> None:
        self._last: float | None = None

    def update(self, value: float) -> None:
        self._last = float(value)

    def predict(self) -> float:
        self._require_data(self._last is not None)
        return self._last  # type: ignore[return-value]


class RunningMean(Predictor):
    """Forecast = mean of the entire history."""

    def __init__(self) -> None:
        self._sum = 0.0
        self._n = 0

    def update(self, value: float) -> None:
        self._sum += float(value)
        self._n += 1

    def predict(self) -> float:
        self._require_data(self._n > 0)
        return self._sum / self._n


class SlidingWindowMean(Predictor):
    """Forecast = mean of the trailing ``window`` observations."""

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf: deque = deque(maxlen=window)

    @property
    def name(self) -> str:
        return f"SlidingWindowMean({self.window})"

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def predict(self) -> float:
        self._require_data(bool(self._buf))
        return float(np.mean(self._buf))


class SlidingMedian(Predictor):
    """Forecast = median of the trailing ``window`` observations.

    Robust to the load spikes that dominate CPU-availability traces.
    """

    def __init__(self, window: int = 10) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self._buf: deque = deque(maxlen=window)

    @property
    def name(self) -> str:
        return f"SlidingMedian({self.window})"

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def predict(self) -> float:
        self._require_data(bool(self._buf))
        ordered = sorted(self._buf)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            median = ordered[mid]
        else:
            median = (ordered[mid - 1] + ordered[mid]) / 2
        if median == 0.0:
            # The sign of a zero median is numpy's: its mean starts from
            # +0.0, and a stable sort may put either zero in the middle.
            return float(np.median(self._buf))
        return median


class ExponentialSmoothing(Predictor):
    """Forecast = exponentially weighted history with gain ``alpha``."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._state: float | None = None

    @property
    def name(self) -> str:
        return f"ExponentialSmoothing({self.alpha})"

    def update(self, value: float) -> None:
        v = float(value)
        self._state = v if self._state is None else (
            self.alpha * v + (1.0 - self.alpha) * self._state
        )

    def predict(self) -> float:
        self._require_data(self._state is not None)
        return self._state  # type: ignore[return-value]


class AdaptiveMean(Predictor):
    """Mean over a window that shrinks when the series shifts level.

    After each observation the predictor compares the recent half-window
    mean against the full-window mean; a shift beyond ``tolerance`` (as a
    fraction of the full-window std) truncates history, so the mean adapts
    quickly to regime changes while smoothing stationary noise.
    """

    def __init__(self, max_window: int = 32, tolerance: float = 1.5) -> None:
        if max_window < 4:
            raise ValueError(f"max_window must be >= 4, got {max_window}")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        self.max_window = max_window
        self.tolerance = tolerance
        self._buf: deque = deque(maxlen=max_window)

    @property
    def name(self) -> str:
        return f"AdaptiveMean({self.max_window})"

    def update(self, value: float) -> None:
        self._buf.append(float(value))
        if len(self._buf) >= 8:
            arr = np.asarray(self._buf)
            half = arr[len(arr) // 2 :]
            sd = arr.std()
            if sd > 0 and abs(half.mean() - arr.mean()) > self.tolerance * sd:
                recent = list(half)
                self._buf.clear()
                self._buf.extend(recent)

    def predict(self) -> float:
        self._require_data(bool(self._buf))
        return float(np.mean(self._buf))


class AutoRegressive(Predictor):
    """AR(p) forecaster refit by least squares over a sliding window.

    The heaviest member of the NWS battery: captures short-range
    correlation that mean/median predictors smooth away.  Falls back to
    the last value until the window holds enough history to fit.
    """

    def __init__(self, order: int = 3, window: int = 64) -> None:
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        if window < 2 * order + 2:
            raise ValueError(
                f"window {window} too small for AR({order}); "
                f"need >= {2 * order + 2}"
            )
        self.order = order
        self.window = window
        self._buf: deque = deque(maxlen=window)

    @property
    def name(self) -> str:
        return f"AutoRegressive({self.order})"

    def update(self, value: float) -> None:
        self._buf.append(float(value))

    def predict(self) -> float:
        self._require_data(bool(self._buf))
        x = np.asarray(self._buf)
        p = self.order
        if len(x) < 2 * p + 2:
            return float(x[-1])
        # Design matrix of lagged values plus intercept.
        rows = len(x) - p
        X = np.empty((rows, p + 1))
        X[:, 0] = 1.0
        for k in range(p):
            X[:, k + 1] = x[p - 1 - k : len(x) - 1 - k]
        y = x[p:]
        coef, *_ = np.linalg.lstsq(X, y, rcond=None)
        latest = np.concatenate([[1.0], x[-1 : -p - 1 : -1]])
        return float(latest @ coef)


class ForecasterEnsemble:
    """Dynamic predictor selection over a battery of predictors.

    Each value is *scored*, then absorbed: every predictor's standing
    forecast is compared with it (accumulating mean absolute postcast
    error with exponential decay ``decay``), then the value is fed to all
    predictors.  ``predict`` returns the forecast of the currently
    best-scoring predictor.

    Scoring runs on demand.  Outside a collection window ``update`` only
    checks the value and queues it; every read (``predict``,
    ``best_index``, ``best_name``, ``postcast_errors`` and
    ``predictors``) first scores the queued values in arrival order,
    through the same step an eager update takes, so a read sees exactly
    the state that scoring each value on arrival would have built.
    Inside a window ``update`` scores at once, since it reports the
    ensemble's own error and selection churn.  At :data:`MAX_PENDING`
    queued values the queue is scored anyway.
    """

    def __init__(self, predictors: list[Predictor] | None = None, decay: float = 0.98):
        if predictors is None:
            predictors = default_ensemble()
        if not predictors:
            raise ValueError("ensemble needs at least one predictor")
        if not (0.0 < decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self._predictors = predictors
        self._decay = decay
        # Decayed error sums per predictor, and their common decayed weight.
        self._err = [0.0] * len(predictors)
        self._weight = 0.0
        self._n = 0
        self._last_best: int | None = None
        self._pending: list[float] = []

    @property
    def predictors(self) -> list[Predictor]:
        """The predictor battery, with every value fed so far absorbed."""
        self._drain()
        return self._predictors

    def update(self, value: float) -> float | None:
        """Feed the next measurement; raises ``ValueError`` if not finite.

        Returns the standing best predictor's absolute postcast error —
        how far the ensemble's own forecast of this value was off — when
        a collection window is open and the ensemble had history to
        forecast from; ``None`` otherwise (the value is queued).
        """
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"measurement must be finite, got {v!r}")
        if obs.current() is None:
            self._pending.append(v)
            if len(self._pending) >= MAX_PENDING:
                self._drain()
            return None
        self._drain()
        standing = self._best() if self._n > 0 else None
        errors = self._score(v)
        obs.counter("forecast.updates").inc()
        err_best: float | None = None
        if errors is not None:
            err_best = errors[standing]
            obs.histogram("forecast.abs_error").observe(err_best)
        # Predictor-selection churn: how often the postcast winner changes.
        best = self._best()
        if self._last_best is not None and best != self._last_best:
            obs.counter(
                "forecast.selection_switches",
                predictor=self._predictors[best].name,
            ).inc()
        self._last_best = best
        return err_best

    def _score(self, v: float) -> list[float] | None:
        """Score every standing forecast against ``v``, then feed ``v`` to
        every predictor; returns the absolute errors (``None`` for the
        first value, which has no forecast to score)."""
        errors = None
        if self._n > 0:
            errors = [abs(p.predict() - v) for p in self._predictors]
            decay = self._decay
            self._err = [decay * e0 + e for e0, e in zip(self._err, errors)]
            self._weight = decay * self._weight + 1.0
        for p in self._predictors:
            p.update(v)
        self._n += 1
        return errors

    def _drain(self) -> None:
        """Score the queued values in arrival order."""
        if self._pending:
            pending, self._pending = self._pending, []
            for v in pending:
                self._score(v)

    def _scores(self) -> list[float]:
        weight = max(self._weight, 1e-12)
        return [e / weight for e in self._err]

    def _best(self) -> int:
        if self._n == 0:
            raise ValueError("ensemble has no data yet")
        if self._n == 1:
            return 0
        return int(np.argmin(self._scores()))

    @property
    def best_index(self) -> int:
        """Index of the predictor with lowest decayed postcast MAE."""
        self._drain()
        return self._best()

    @property
    def best_name(self) -> str:
        """Name of the currently selected predictor."""
        return self._predictors[self.best_index].name

    def predict(self) -> float:
        """Forecast of the best predictor so far."""
        return self._predictors[self.best_index].predict()

    def postcast_errors(self) -> dict[str, float]:
        """Decayed MAE per predictor (diagnostic / ablation output)."""
        self._drain()
        if self._n <= 1:
            return {p.name: float("nan") for p in self._predictors}
        return dict(zip((p.name for p in self._predictors), self._scores()))


def default_ensemble() -> list[Predictor]:
    """The predictor battery used by Pragma's resource monitor."""
    return [
        LastValue(),
        RunningMean(),
        SlidingWindowMean(5),
        SlidingWindowMean(20),
        SlidingMedian(5),
        SlidingMedian(20),
        ExponentialSmoothing(0.2),
        ExponentialSmoothing(0.5),
        AdaptiveMean(32),
        AutoRegressive(3),
    ]
