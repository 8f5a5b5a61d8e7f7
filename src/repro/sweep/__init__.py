"""``repro.sweep`` — the parallel, cache-aware scenario execution engine.

The substrate for running the reproduction's whole evaluation surface —
experiments, ablations, chaos configurations — as one uniform scenario
set:

- :mod:`repro.sweep.scenario` — the :class:`Scenario` protocol, the
  process-local registry, and deterministic identity (canonical params +
  SHA-256 seed derivation);
- :mod:`repro.sweep.cache` — the content-addressed on-disk result cache
  (scenario name + canonicalized params + code salt → checksummed
  JSON record);
- :mod:`repro.sweep.runner` — :class:`SweepRunner`, fanning cache
  misses across a process pool with ordered-deterministic collection;
- :mod:`repro.sweep.builtin` — the stock scenario set (imported lazily
  by :func:`run_sweep` and by pool workers, not by this package).

``python -m repro sweep`` is the CLI face; :func:`run_sweep` the
programmatic one::

    from repro.sweep import run_sweep

    result = run_sweep("table*", jobs=4)
    print(result.render())
"""

from repro.sweep.cache import ResultCache, cache_key, code_salt
from repro.sweep.runner import SweepResult, SweepRunner, TaskResult, run_sweep
from repro.sweep.scenario import (
    FunctionScenario,
    Scenario,
    ScenarioContext,
    all_scenarios,
    canonical_params,
    derive_seed,
    filter_scenarios,
    get_scenario,
    jsonify,
    register,
    unregister,
)

__all__ = [
    "FunctionScenario",
    "ResultCache",
    "Scenario",
    "ScenarioContext",
    "SweepResult",
    "SweepRunner",
    "TaskResult",
    "all_scenarios",
    "cache_key",
    "canonical_params",
    "code_salt",
    "derive_seed",
    "filter_scenarios",
    "get_scenario",
    "jsonify",
    "register",
    "run_sweep",
    "unregister",
]
