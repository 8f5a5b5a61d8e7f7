"""Table 2 — Recommendations for mapping octants onto partitioning schemes.

Reproduced by querying the default policy knowledge base for every octant
(the associative interface agents use at runtime).  See
:mod:`repro.experiments.table2`.
"""

from repro.experiments import table2
from repro.policy import Octant, TABLE2_RECOMMENDATIONS
from repro.sweep.scenario import ScenarioContext


def test_table2_policy_recommendations(benchmark):
    result = benchmark(table2.run_scenario, ScenarioContext())
    print("\n" + table2.render_scenario(result))

    for octant in Octant:
        action = result["octants"][octant.value]
        assert tuple(action["partitioners"]) == table2.PAPER[octant.value]
        assert action["partitioner"] == table2.PAPER[octant.value][0]
        assert TABLE2_RECOMMENDATIONS[octant] == table2.PAPER[octant.value]
