"""Figure 1 — The CATALINA architecture, exercised end to end.

Drives spec → template → ADM → CAs → Message Center through an injected
node failure and verifies each architectural element did its job.  See
:mod:`repro.experiments.fig1`.
"""

from repro.experiments import fig1
from repro.sweep.builtin import PAPER_PARAMS
from repro.sweep.scenario import ScenarioContext


def test_fig1_catalina_architecture(benchmark):
    ctx = ScenarioContext(params=PAPER_PARAMS["fig1"])
    result = benchmark.pedantic(fig1.run_scenario, args=(ctx,), rounds=1,
                                iterations=1)
    print("\n" + fig1.render_scenario(result))

    # Every architectural element participated.
    agents = result["agents"]
    assert result["template"] == "performance-managed"
    assert result["done"], "application must complete despite the failure"
    assert agents[0]["migrations"] >= 1, "ADM must migrate off node 0"
    assert agents[0]["node"] != 0
    assert any(agent["events"] > 0 for agent in agents)
    assert result["delivered"] > 0
    assert len(result["decisions"]) >= 1
