"""Table 3 — Characterizing RM3D application run-time state."""

from __future__ import annotations

from dataclasses import dataclass

from repro.amr.trace import AdaptationTrace
from repro.core import MetaPartitioner
from repro.policy import Octant, classify_trace
from repro.sweep.scenario import ScenarioContext

__all__ = ["PAPER", "Table3Row", "run_scenario", "render_scenario"]

#: snapshot index -> (octant, selected partitioner)
PAPER = {
    0: ("IV", "G-MISP+SP"),
    5: ("VII", "G-MISP+SP"),
    25: ("I", "pBD-ISP"),
    106: ("VI", "pBD-ISP"),
    137: ("VIII", "G-MISP+SP"),
    162: ("II", "pBD-ISP"),
    174: ("V", "pBD-ISP"),
    201: ("III", "G-MISP+SP"),
}


@dataclass(frozen=True, slots=True)
class Table3Row:
    """Classification + selection for one snapshot."""

    index: int
    octant: Octant
    partitioner: str


def _run(trace: AdaptationTrace) -> list[Table3Row]:
    states = classify_trace(trace)
    meta = MetaPartitioner()
    return [
        Table3Row(
            index=idx,
            octant=state.octant,
            partitioner=meta.decide_for_octant(state.octant).label,
        )
        for idx, state in enumerate(states)
    ]


def _digest(rows: list[Table3Row]) -> dict:
    sampled = {}
    matches = 0
    for idx, (p_oct, p_part) in sorted(PAPER.items()):
        if idx >= len(rows):
            continue
        row = rows[idx]
        ok = row.octant.value == p_oct and row.partitioner == p_part
        matches += ok
        sampled[str(idx)] = {
            "octant": row.octant.value,
            "partitioner": row.partitioner,
            "paper_octant": p_oct,
            "paper_partitioner": p_part,
            "ok": bool(ok),
        }
    return {
        "num_snapshots": len(rows),
        "rows": [[r.octant.value, r.partitioner] for r in rows],
        "sampled": sampled,
        "agreement": matches,
    }


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: classify every snapshot of the configured
    trace and select partitioners through Table 2; returns the JSON
    classification digest (paper-sampled indices included when the
    trace is long enough to contain them)."""
    return _digest(_run(ctx.trace()))


def render_scenario(result: dict) -> str:
    """Format the sampled-snapshot comparison against the paper."""
    lines = [
        "Table 3 — RM3D run-time state characterization",
        f"{'snapshot':>9} {'octant':>7} {'partitioner':>12} "
        f"{'paper octant':>13} {'paper partitioner':>18}",
    ]
    sampled = result["sampled"]
    for idx in sorted(sampled, key=int):
        s = sampled[idx]
        lines.append(
            f"{idx:>9} {s['octant']:>7} {s['partitioner']:>12} "
            f"{s['paper_octant']:>13} {s['paper_partitioner']:>18}  "
            f"{'ok' if s['ok'] else 'MISS'}"
        )
    lines.append(
        f"agreement: {result['agreement']}/{len(sampled)} sampled snapshots"
    )
    return "\n".join(lines)
