"""Frozen reference of the NWS forecaster battery and its ensemble.

``repro/monitoring/forecasting.py`` as it stood before scoring became
on-demand: ``ForecasterEnsemble.update`` scores every predictor's
standing forecast against each arriving value at once (with numpy
arrays for the decayed errors and weights and ``np.argmin`` for the
selection), and ``SlidingMedian`` takes ``np.median``.  Inside a
collection window it records the same ``forecast.*`` metrics the
package does, which is the one import beyond numpy.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro import obs


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
        return float(np.median(self._buf))


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

    Every ``update`` first scores each predictor's standing forecast
    against the arriving value (accumulating mean absolute postcast error
    with exponential decay ``decay``), then feeds the value to all
    predictors.  ``predict`` returns the forecast of the currently
    best-scoring predictor.
    """

    def __init__(self, predictors: list[Predictor] | None = None, decay: float = 0.98):
        if predictors is None:
            predictors = default_ensemble()
        if not predictors:
            raise ValueError("ensemble needs at least one predictor")
        if not (0.0 < decay <= 1.0):
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.predictors = predictors
        self.decay = decay
        self._err = np.zeros(len(predictors))
        self._weight = np.zeros(len(predictors))
        self._n = 0
        self._last_best: int | None = None

    def update(self, value: float) -> float | None:
        """Score standing forecasts against ``value``, then absorb it.

        Returns the standing best predictor's absolute postcast error —
        how far the ensemble's own forecast of this value was off — when
        observability is enabled and the ensemble had history to forecast
        from; ``None`` otherwise (the disabled path skips the argmin).
        """
        v = float(value)
        w = obs.current()
        err_best: float | None = None
        if self._n > 0 and w is not None:
            err_best = abs(self.predictors[self.best_index].predict() - v)
        if self._n > 0:
            for i, p in enumerate(self.predictors):
                e = abs(p.predict() - v)
                self._err[i] = self.decay * self._err[i] + e
                self._weight[i] = self.decay * self._weight[i] + 1.0
        for p in self.predictors:
            p.update(v)
        self._n += 1
        if w is not None:
            # Predictor-selection churn: how often the postcast winner
            # changes.  Gated so the disabled path skips the argmin.
            obs.counter("forecast.updates").inc()
            if err_best is not None:
                obs.histogram("forecast.abs_error").observe(err_best)
            best = self.best_index
            if self._last_best is not None and best != self._last_best:
                obs.counter(
                    "forecast.selection_switches",
                    predictor=self.predictors[best].name,
                ).inc()
            self._last_best = best
        return err_best

    @property
    def best_index(self) -> int:
        """Index of the predictor with lowest decayed postcast MAE."""
        if self._n == 0:
            raise ValueError("ensemble has no data yet")
        if self._n == 1:
            return 0
        scores = self._err / np.maximum(self._weight, 1e-12)
        return int(np.argmin(scores))

    @property
    def best_name(self) -> str:
        """Name of the currently selected predictor."""
        return self.predictors[self.best_index].name

    def predict(self) -> float:
        """Forecast of the best predictor so far."""
        return self.predictors[self.best_index].predict()

    def postcast_errors(self) -> dict[str, float]:
        """Decayed MAE per predictor (diagnostic / ablation output)."""
        if self._n <= 1:
            return {p.name: float("nan") for p in self.predictors}
        scores = self._err / np.maximum(self._weight, 1e-12)
        return {p.name: float(s) for p, s in zip(self.predictors, scores)}


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
