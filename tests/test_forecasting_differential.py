"""The forecaster ensemble against its frozen oracle, bit for bit.

``tests/reference/ref_forecasting.py`` scores every value on arrival;
the in-tree ensemble queues values outside a collection window and
scores them when something reads.  Over series that stress the
predictors (spikes, level shifts, flat runs, ramps, zeros of either
sign) and read patterns that drain the queue at different points, every
forecast, selected index, postcast error and per-predictor forecast must
carry the same bits, and a window's ``forecast.*`` metrics must agree.
Floats are compared by ``float.hex``; nothing here sums floats with the
builtin ``sum``, which compensates on Python 3.12.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.apps.loadgen import LoadPattern
from repro.gridsys import linux_cluster
from repro.monitoring import ForecasterEnsemble, ResourceMonitor, forecasting
from repro.monitoring.monitor import ATTRIBUTES

_spec = importlib.util.spec_from_file_location(
    "ref_forecasting",
    Path(__file__).parent / "reference" / "ref_forecasting.py",
)
ref_forecasting = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ref_forecasting)

N = 200


def _series(kind: str) -> list[float]:
    u = np.random.default_rng(11).random((3, N))
    t = np.arange(N)
    if kind == "spiky":
        x = 0.7 + 0.02 * (u[0] - 0.5)
        x[u[1] > 0.94] = 0.05
    elif kind == "level-shift":
        x = np.where(t < N // 2, 0.9, 0.3) + 0.03 * (u[0] - 0.5)
    elif kind == "constant":
        x = np.full(N, 0.5)
    elif kind == "trending":
        x = 0.2 + 0.6 * t / N + 0.03 * (u[0] - 0.5)
    elif kind == "zeros":
        x = np.zeros(N)
    elif kind == "neg-zeros":
        x = np.full(N, -0.0)
    elif kind == "mixed-zeros":
        # zeros of both signs, with the odd nonzero value between them
        x = np.where(u[0] > 0.5, -0.0, 0.0)
        x[u[1] > 0.9] = 1.0
    else:
        raise ValueError(kind)
    return x.tolist()


SERIES = ("spiky", "level-shift", "constant", "trending", "zeros",
          "neg-zeros", "mixed-zeros")

#: value indices after which the sporadic pattern reads
SPORADIC = frozenset((0, 1, 2, 9, 33, 63, 64, 65, 127, 150, 151))


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


def _read(ens) -> tuple:
    """Everything a caller can read, as exact bit patterns."""
    return (
        ens.best_index,
        ens.best_name,
        _hex(ens.predict()),
        [_hex(p.predict()) for p in ens.predictors],
        sorted((k, _hex(v)) for k, v in ens.postcast_errors().items()),
    )


def _window_metrics(window) -> tuple:
    reg = window.registry
    return (
        reg.counter_items("forecast.updates"),
        reg.counter_items("forecast.selection_switches"),
        reg.histogram("forecast.abs_error").count,
    )


def _drive(ens, series: list[float], pattern: str) -> dict:
    """Feed ``series`` under read ``pattern``; the observable record."""
    reads, returns, metrics = [], [], None
    lo, hi = len(series) // 3, 2 * len(series) // 3
    window = None
    for i, v in enumerate(series):
        if pattern == "window" and i == lo:
            cm = obs.collect()
            window = cm.__enter__()
        returns.append(_hex(ens.update(v)))
        if pattern == "window" and i == hi - 1:
            cm.__exit__(None, None, None)
            metrics = _window_metrics(window)
        if pattern == "every" or (pattern == "sporadic" and i in SPORADIC):
            reads.append(_read(ens))
    reads.append(_read(ens))
    return {"reads": reads, "returns": returns, "metrics": metrics}


@pytest.mark.parametrize("pattern", ("every", "none", "sporadic", "window"))
@pytest.mark.parametrize("kind", SERIES)
def test_matches_oracle(kind, pattern):
    series = _series(kind)
    got = _drive(ForecasterEnsemble(), series, pattern)
    want = _drive(
        ref_forecasting.ForecasterEnsemble(ref_forecasting.default_ensemble()),
        series, pattern,
    )
    assert got == want
    if pattern == "window":
        updates, _, errors = got["metrics"]
        assert updates == [({}, float(2 * N // 3 - N // 3))]
        assert errors == updates[0][1]


def _monitor_reads(oracle: bool) -> list:
    """fig1's cluster and monitor, sampled 60 times, every forecast
    vector read at every seventh sweep, then each ensemble's postcast
    errors; with ``oracle`` the monitor's ensembles are the oracle's."""
    cluster = linux_cluster(
        8, load_pattern=LoadPattern.STEPPED, max_load=0.5, seed=21
    )
    monitor = ResourceMonitor(cluster, seed=22)
    if oracle:
        for key in monitor._forecasters:
            monitor._forecasters[key] = ref_forecasting.ForecasterEnsemble(
                ref_forecasting.default_ensemble()
            )
    reads = []
    for t in range(60):
        monitor.sample(float(t))
        if t % 7 == 3:
            reads.append([
                [_hex(v) for v in monitor.forecast_vector(attr).tolist()]
                for attr in ATTRIBUTES
            ])
    for node in range(cluster.num_nodes):
        for attr in ATTRIBUTES:
            errors = monitor.ensemble(node, attr).postcast_errors()
            reads.append(sorted((k, _hex(v)) for k, v in errors.items()))
    return reads


def test_monitor_matches_oracle():
    """The monitor's forecasts through queued, sporadically read
    ensembles equal those of ensembles that score on arrival."""
    assert _monitor_reads(oracle=False) == _monitor_reads(oracle=True)


@pytest.mark.parametrize("window", (3, 4, 5, 20))
def test_sliding_median_matches_numpy(window):
    """The sorted-middle median carries ``np.median``'s bits, zeros too."""
    u = np.random.default_rng(5).random((2, 400))
    # ties among quarter steps, unrounded values, and zeros of both signs
    values = np.where(u[1] > 0.4, np.round(u[0] * 4) / 4 - 0.5, u[0])
    values[u[1] > 0.7] = -0.0
    values[u[1] > 0.85] = 0.0
    ours = forecasting.SlidingMedian(window)
    ref = ref_forecasting.SlidingMedian(window)
    for v in values.tolist():
        ours.update(v)
        ref.update(v)
        assert ours.predict().hex() == ref.predict().hex()


class TestPendingQueue:
    def test_bound_holds_without_reads(self):
        ens = ForecasterEnsemble()
        values = _series("spiky")
        for i in range(10 * forecasting.MAX_PENDING):
            ens.update(values[i % N])
            assert len(ens._pending) <= forecasting.MAX_PENDING
        assert ens._n + len(ens._pending) == 10 * forecasting.MAX_PENDING

    @pytest.mark.parametrize("k", range(10))
    def test_predictor_read_sees_every_value(self, k):
        """``predictors[k].predict()`` as the first read is not stale."""
        ens = ForecasterEnsemble()
        ref = ref_forecasting.ForecasterEnsemble(
            ref_forecasting.default_ensemble()
        )
        for v in _series("trending")[:37]:
            ens.update(v)
            ref.update(v)
        assert ens.predictors[k].predict().hex() == (
            ref.predictors[k].predict().hex()
        )

    def test_queue_is_scored_before_a_window_update(self):
        ens = ForecasterEnsemble()
        for v in _series("level-shift")[:50]:
            ens.update(v)
        assert ens._pending
        with obs.collect():
            assert ens.update(0.3) is not None
        assert not ens._pending and ens._n == 51


class TestNonFinite:
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_update_rejects(self, bad):
        ens = ForecasterEnsemble()
        for v in (0.5, 0.6, 0.55):
            ens.update(v)
        before = _read(ens)
        with pytest.raises(ValueError, match="finite"):
            ens.update(bad)
        with obs.collect(), pytest.raises(ValueError, match="finite"):
            ens.update(bad)
        # nothing was queued or scored: later values score as if the
        # bad one never arrived
        assert _read(ens) == before
        ens.update(0.5)
        ref = ref_forecasting.ForecasterEnsemble(
            ref_forecasting.default_ensemble()
        )
        for v in (0.5, 0.6, 0.55, 0.5):
            ref.update(v)
        assert _read(ens) == _read(ref)
