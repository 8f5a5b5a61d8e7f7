"""Figure 2 — The octant approach for characterizing application state.

Synthesizes a grid hierarchy for each corner of the state cube,
classifies it, and checks each lands in its octant.  See
:mod:`repro.experiments.fig2`.
"""

from repro.experiments import fig2
from repro.policy import OctantAxes
from repro.sweep.scenario import ScenarioContext


def test_fig2_octant_cube(benchmark):
    result = benchmark(fig2.run_scenario, ScenarioContext())
    print("\n" + fig2.render_scenario(result))

    failures = []
    for c in result["corners"]:
        expected = OctantAxes(
            scattered=c["scattered"], high_dynamics=c["moving"],
            comm_dominated=c["thin"],
        ).octant()
        if c["octant"] != expected.value:
            failures.append((c, expected))
    assert not failures, f"corner misclassifications: {failures}"
    assert {c["octant"] for c in result["corners"]} == {
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII"
    }
