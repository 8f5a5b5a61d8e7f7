"""Figure 3 — RM3D profile views at sampled time-steps.

Regenerates the figure's content as refinement profiles along the
shock-propagation axis and asserts the phase structure the renderings
illustrate.  See :mod:`repro.experiments.fig3`.
"""

import numpy as np

from repro.experiments import fig3
from repro.sweep.builtin import PAPER_PARAMS
from repro.sweep.scenario import ScenarioContext


def test_fig3_rm3d_profiles(benchmark):
    ctx = ScenarioContext(params=PAPER_PARAMS["fig3"])
    result = benchmark.pedantic(fig3.run_scenario, args=(ctx,), rounds=1,
                                iterations=1)
    print("\n" + fig3.render_scenario(result))
    data = {
        d["index"]: {**d, "x_profile": np.asarray(d["x_profile"])}
        for d in result["snapshots"]
    }

    # Phase structure assertions mirroring the renderings:
    # early interface is localized around x=40 (of 128)
    p5 = data[5]["x_profile"]
    assert p5[26:46].max() > 0.5 and p5[70:].max() == 0.0
    # the shock snapshot has refinement ahead of the interface region
    assert data[25]["x_profile"][:24].max() > 0.0
    # the mixing zone (t=106) spreads over more x than the interface
    occ = lambda p: (p > 0.01).sum()
    assert occ(data[106]["x_profile"]) > occ(data[5]["x_profile"])
    # re-shock re-energizes: more patches than the quiet compressed layer
    assert data[162]["patches"] > data[174]["patches"]
    # every sampled snapshot is refined; the strong-feature phases reach
    # the full 3 refined levels (weak shocks refine shallower by design)
    assert all(d["levels"] >= 2 for d in data.values())
    assert sum(d["levels"] == 4 for d in data.values()) >= 4
