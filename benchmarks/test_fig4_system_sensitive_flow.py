"""Figure 4 — System-sensitive adaptive AMR partitioning data flow.

Drives monitoring → capacity calculation → heterogeneous partitioning on
a loaded 8-node cluster and verifies each arrow of the figure.  See
:mod:`repro.experiments.fig4`.
"""

import numpy as np
import pytest

from repro.experiments import fig4
from repro.sweep.builtin import PAPER_PARAMS
from repro.sweep.scenario import ScenarioContext


def test_fig4_system_sensitive_flow(benchmark):
    ctx = ScenarioContext(params=PAPER_PARAMS["fig4"])
    result = benchmark.pedantic(fig4.run_scenario, args=(ctx,), rounds=1,
                                iterations=1)
    print("\n" + fig4.render_scenario(result))

    nodes = result["nodes"]
    # Monitoring arrow: all three attributes measured on every node.
    assert len(nodes) == 8
    for d in nodes:
        assert 0 <= d["cpu_avail"] <= 1
        assert d["memory"] > 0 and d["bandwidth"] > 0
    # Capacity arrow: normalized, and the loaded tail gets less.
    capacities = np.array([d["capacity"] for d in nodes])
    assert capacities.sum() == pytest.approx(1.0)
    assert capacities[0] > capacities[7]
    # Partitioning arrow: load shares follow capacities.
    shares = np.array([d["load_share"] for d in nodes])
    corr = np.corrcoef(capacities, shares)[0, 1]
    assert corr > 0.9, f"load shares must track capacities (corr={corr:.2f})"
