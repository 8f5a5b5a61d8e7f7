"""Figure 4 — System-sensitive adaptive AMR partitioning data flow."""

from __future__ import annotations

from repro.amr.trace import AdaptationTrace
from repro.apps.loadgen import LoadPattern
from repro.core import CapacityCalculator, CapacityWeights
from repro.gridsys import linux_cluster
from repro.monitoring import ResourceMonitor
from repro.partitioners import HeterogeneousPartitioner, build_units
from repro.sweep.scenario import ScenarioContext

__all__ = ["run_scenario", "render_scenario"]


def _run(trace: AdaptationTrace, seed: int = 33):
    cluster = linux_cluster(
        8, load_pattern=LoadPattern.STEPPED, max_load=0.7, seed=seed
    )
    monitor = ResourceMonitor(cluster, seed=seed + 1)
    monitor.sample_range(0.0, 32.0, 1.0)

    weights = CapacityWeights(cpu=0.8, memory=0.05, bandwidth=0.15)
    capacities = CapacityCalculator(monitor, weights).relative_capacities()

    units = build_units(trace[len(trace) // 2].hierarchy, granularity=2)
    partition = HeterogeneousPartitioner().partition(units, 8, capacities)
    return monitor, capacities, partition


def _digest(result) -> dict:
    monitor, capacities, partition = result
    loads = partition.proc_loads()
    shares = loads / loads.sum()
    nodes = []
    for n in range(len(capacities)):
        state = monitor.current(n)
        nodes.append({
            "node": n,
            "cpu_avail": float(state.cpu),
            "memory": float(state.memory),
            "bandwidth": float(state.bandwidth),
            "capacity": float(capacities[n]),
            "load_share": float(shares[n]),
        })
    return {"nodes": nodes}


def run_scenario(ctx: ScenarioContext) -> dict:
    """Scenario entrypoint: monitoring → capacity calculator →
    heterogeneous partitioner on the configured trace; returns the JSON
    per-node digest."""
    return _digest(_run(ctx.trace(), seed=ctx.params.get("seed", 33)))


def render_scenario(result: dict) -> str:
    """Format the per-node monitoring/capacity/load-share table."""
    lines = [
        "Figure 4 — monitoring -> capacity calculator -> partitioner",
        f"{'node':>5} {'cpu avail':>10} {'bandwidth':>12} "
        f"{'capacity':>9} {'load share':>11}",
    ]
    for d in result["nodes"]:
        lines.append(
            f"{d['node']:>5} {d['cpu_avail']:>10.3f} "
            f"{d['bandwidth']:>12.3e} {d['capacity']:>9.3f} "
            f"{d['load_share']:>11.3f}"
        )
    return "\n".join(lines)
