"""The stable public API facade.

Everything a downstream consumer should import lives here, re-exported
under one flat namespace with compatibility guarantees:

- **runtime** — :class:`Pragma` / :class:`PragmaRuntime` (the paper's
  adaptive runtime) and :class:`MetaPartitioner` (octant-driven
  partitioner selection),
- **scenarios** — :class:`Scenario`, :class:`SweepRunner` and
  :func:`run_sweep` (the batch sweep engine),
- **serving** — :class:`ScenarioServer` (the long-running
  scenario-serving runtime, ``python -m repro serve``),
- **configuration** — :class:`SimulatorOptions` (the execution
  simulator's tuning bundle),
- **observability** — :class:`HealthStatus` (the ``health`` verb's
  liveness/readiness document).

The exact surface is snapshotted in ``tests/golden/api_surface.json``;
``tests/test_api_surface.py`` fails on any drift, so additions and
removals here are always explicit, reviewed changes.  Internal modules
(``repro.execsim``, ``repro.agents``, ...) remain importable but carry
no stability promise; prefer this facade::

    from repro.api import Pragma, run_sweep, ScenarioServer
"""

from repro.config import SimulatorOptions
from repro.core import MetaPartitioner, PragmaRuntime
from repro.obs.live import HealthStatus
from repro.serve import ScenarioServer
from repro.sweep import Scenario, SweepRunner, run_sweep

#: the paper's name for the runtime — alias of :class:`PragmaRuntime`
Pragma = PragmaRuntime

__all__ = [
    "Pragma",
    "PragmaRuntime",
    "MetaPartitioner",
    "Scenario",
    "SweepRunner",
    "run_sweep",
    "ScenarioServer",
    "SimulatorOptions",
    "HealthStatus",
]
