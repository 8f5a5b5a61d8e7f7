"""First-class reproduction experiments — one module per table/figure.

Every experiment module exposes:

- ``run_scenario(ctx)`` — execute the experiment and return its JSON
  result document (the :mod:`repro.sweep` scenario entrypoint),
- ``render_scenario(result)`` — format the paper-style table/figure as
  text,
- ``PAPER`` constants with the published values for comparison.

The pytest benchmarks under ``benchmarks/`` and the command line
(``python -m repro run <experiment>``) are both thin wrappers around
these.
"""

from repro.experiments import common
from repro.experiments import table1, table2, table3, table4, table5
from repro.experiments import fig1, fig2, fig3, fig4

EXPERIMENTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "table4": table4,
    "table5": table5,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
}

__all__ = ["EXPERIMENTS", "common"] + list(EXPERIMENTS)
