"""Pinned results of the paths that feed and read the NWS forecasters.

``fig1`` reads the CPU forecasts when its ADM migrates a component,
``fig4`` and ``table5`` sample the monitor without reading a forecast,
and the ensemble case reads ``best_index`` and ``predict()`` after every
value of a fixed series.  Each result is hashed whole (``json.dumps``
writes every float by its shortest round-trip repr), so the literals pin
every forecast, score and decision byte for byte: a change to how or
when the forecasters are scored must leave them unchanged.

The autoregressive predictor is never selected on the ensemble's series:
its ``lstsq`` forecasts carry the BLAS build's rounding, so a literal
holding their bits would not hold across hosts.  The monitor, which does
select it, is compared with the oracle in-process instead
(``test_forecasting_differential.py``).
"""

import hashlib
import json

import numpy as np
import pytest

from repro.monitoring import ForecasterEnsemble
from repro.sweep import execute_scenario, get_scenario, run_identity
from repro.sweep.builtin import ensure_registered

#: (scenario, seed override) -> sha256 of the sweep-sized result; fig1's
#: migrations land on the same nodes at all four seeds, so its four
#: digests agree
SCENARIO_DIGESTS = {
    ("fig1", 21):
        "fd2e21bf8f3adabe954c5e6833f45aec510b975d48125cf6c80d604378ec5a83",
    ("fig1", 5):
        "fd2e21bf8f3adabe954c5e6833f45aec510b975d48125cf6c80d604378ec5a83",
    ("fig1", 8):
        "fd2e21bf8f3adabe954c5e6833f45aec510b975d48125cf6c80d604378ec5a83",
    ("fig1", 13):
        "fd2e21bf8f3adabe954c5e6833f45aec510b975d48125cf6c80d604378ec5a83",
    ("fig4", 33):
        "7daf8cab9bbed5db8cb3f7b0b2306dbdbc5acf10b5388109058dc11dd966739f",
    ("fig4", 5):
        "3817f26b52972dbd9b0f4819a23a8208c763dfe3ff7da556a8916386201d1d24",
    ("fig4", 8):
        "2b97de310f88642b6ae9619d5bcaef419bec0c68c7cda9b1f965379215d5f16f",
    ("fig4", 13):
        "c383a9f72bb24b50ded9cf38a13f42a5116169d6203967d551e1f6ac601d7b8b",
    ("table5", 42):
        "297b3ef750674b73e721e715db9d7f42f239cc96ccb782e30d0386a0dbcf959b",
}

ENSEMBLE_DIGEST = (
    "fa7d761650324846717355be78759dab08367b56a7afff3ec4ea8d5944535d10"
)


def _sha(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _result(name: str, seed: int):
    ensure_registered()
    scenario = get_scenario(name)
    params, derived, _ = run_identity(scenario, {"seed": seed})
    return execute_scenario(scenario, params, derived)


@pytest.mark.parametrize(
    "name,seed", list(SCENARIO_DIGESTS), ids=lambda v: str(v)
)
def test_scenario_digest(name, seed):
    got = _sha(json.dumps(_result(name, seed), sort_keys=True))
    assert got == SCENARIO_DIGESTS[(name, seed)]


def pinned_series(n: int = 300) -> np.ndarray:
    """Noisy level shifts with spikes, a ramp and a flat run, drawn from
    ``default_rng(7).random()`` (a version-stable stream)."""
    u = np.random.default_rng(7).random((3, n))
    t = np.arange(n)
    level = np.where(t < n // 3, 0.8, np.where(t < 2 * n // 3, 0.3, 0.55))
    x = level + 0.05 * (u[0] - 0.5) + np.where(u[1] > 0.94, 0.4, 0.0)
    x[200:240] = 0.2 + 0.01 * np.arange(40)
    x[260:280] = 0.5
    return x


def test_ensemble_read_sequence_digest():
    """``(best_index, predict())`` after every value of the series."""
    ens = ForecasterEnsemble()
    seq = []
    for v in pinned_series():
        ens.update(v)
        seq.append((ens.best_index, ens.predict().hex()))
    ar = [p.name for p in ens.predictors].index("AutoRegressive(3)")
    assert all(best != ar for best, _ in seq)
    assert _sha(repr(seq)) == ENSEMBLE_DIGEST
