"""Table 5 — Improvement due to system-sensitive adaptive partitioning.

"System sensitive partitioning reduced execution time by about 18% in
the case of 32 nodes"; improvement grows with processor count because
larger runs must spill onto the heavily loaded tail of the node pool.
See :mod:`repro.experiments.table5`.
"""

from repro.experiments import table5
from repro.sweep.builtin import PAPER_PARAMS
from repro.sweep.scenario import ScenarioContext


def test_table5_system_sensitive_improvement(benchmark):
    ctx = ScenarioContext(params=PAPER_PARAMS["table5"])
    result = benchmark.pedantic(table5.run_scenario, args=(ctx,), rounds=1,
                                iterations=1)
    print("\n" + table5.render_scenario(result))

    improvements = result["improvements"]
    vals = [improvements[str(n)] for n in table5.PROC_COUNTS]
    # Monotone-increasing trend (small measurement jitter tolerated).
    for a, b in zip(vals, vals[1:]):
        assert b >= a - 1.5, f"improvement must grow with node count: {vals}"
    # The headline figure: ~18 % at 32 nodes.
    assert 10.0 <= improvements["32"] <= 30.0
    # System-sensitivity never hurts measurably at any size.
    assert all(v > -2.0 for v in vals)
