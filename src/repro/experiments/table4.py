"""Table 4 — Partitioner performance for RM3D on 64 processors."""

from __future__ import annotations

from repro.amr.trace import AdaptationTrace
from repro.core import PragmaRuntime
from repro.core.pragma import AdaptiveRunReport
from repro.gridsys import sp2_blue_horizon
from repro.sweep.scenario import ScenarioContext

__all__ = ["PAPER", "PAPER_IMPROVEMENT_PCT", "run_scenario",
           "render_scenario"]

#: partitioner -> (runtime s, max load imbalance %, AMR efficiency %)
PAPER = {
    "SFC": (484.502, 24.878, 98.8207),
    "G-MISP+SP": (405.062, 11.3178, 98.7778),
    "pBD-ISP": (414.952, 35.0317, 98.8582),
    "adaptive": (352.824, 8.11825, 98.7633),
}

PAPER_IMPROVEMENT_PCT = 27.2

#: the static baselines the adaptive run is compared against
BASELINES = ("SFC", "G-MISP+SP", "pBD-ISP")


def _run(trace: AdaptationTrace, num_procs: int = 64) -> AdaptiveRunReport:
    runtime = PragmaRuntime(
        cluster=sp2_blue_horizon(num_procs), num_procs=num_procs
    )
    return runtime.run_adaptive(trace, compare_with=BASELINES)


def _digest(report: AdaptiveRunReport, num_procs: int | None = None) -> dict:
    results = {"adaptive": report.adaptive, **report.static}
    return {
        "num_procs": num_procs,
        "partitioners": {
            name: {
                "runtime_s": r.total_runtime,
                "imbalance_pct": r.mean_imbalance_pct,
                "efficiency_pct": r.amr_efficiency_pct,
            }
            for name, r in results.items()
        },
        "improvement_over_worst_pct": report.improvement_over_worst_pct,
        "adaptive_usage": dict(report.adaptive.partitioner_usage()),
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: replay the configured trace under the
    meta-partitioner and the static baselines; returns the JSON
    comparison digest."""
    num_procs = ctx.params.get("num_procs", 64)
    return _digest(_run(ctx.trace(), num_procs=num_procs), num_procs)


def render_scenario(result: dict) -> str:
    """Format the Table 4 comparison (ours vs paper) as text."""
    lines = [
        "Table 4 — Partitioner performance, RM3D on 64 processors",
        f"{'partitioner':>12} {'runtime(s)':>11} {'imbalance(%)':>13} "
        f"{'efficiency(%)':>14}   paper: rt / imb / eff",
    ]
    for name in (*BASELINES, "adaptive"):
        r = result["partitioners"][name]
        p = PAPER[name]
        lines.append(
            f"{name:>12} {r['runtime_s']:>11.1f} "
            f"{r['imbalance_pct']:>13.1f} {r['efficiency_pct']:>14.2f}"
            f"   {p[0]:.1f} / {p[1]:.1f} / {p[2]:.2f}"
        )
    lines.append(
        f"adaptive improvement over slowest: "
        f"{result['improvement_over_worst_pct']:.1f}% "
        f"(paper: {PAPER_IMPROVEMENT_PCT}%)"
    )
    lines.append(
        f"adaptive partitioner usage: {result['adaptive_usage']}"
    )
    return "\n".join(lines)
