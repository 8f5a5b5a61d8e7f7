"""``repro.sweep`` — the parallel, cache-aware scenario execution engine.

The substrate for running the reproduction's whole evaluation surface —
experiments, ablations, chaos configurations — as one uniform scenario
set:

- :mod:`repro.sweep.scenario` — the :class:`Scenario` protocol, the
  process-local registry, and the one executor every front end runs a
  scenario through (:func:`run_identity`: params, derived seed and cache
  key; :func:`execute_scenario`: the run itself);
- :mod:`repro.sweep.cache` — the content-addressed on-disk result cache
  (code salt + version + name + canonical params + derived seed →
  checksummed JSON record);
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

from repro.sweep.cache import ResultCache, cache_record, code_salt
from repro.sweep.runner import SweepResult, SweepRunner, TaskResult, run_sweep
from repro.sweep.scenario import (
    FunctionScenario,
    Scenario,
    ScenarioContext,
    all_scenarios,
    canonical_params,
    derive_seed,
    execute_scenario,
    filter_scenarios,
    get_scenario,
    jsonify,
    register,
    run_identity,
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
    "cache_record",
    "canonical_params",
    "code_salt",
    "derive_seed",
    "execute_scenario",
    "filter_scenarios",
    "get_scenario",
    "jsonify",
    "register",
    "run_identity",
    "run_sweep",
    "unregister",
]
