"""Observability perf snapshot — emits ``BENCH_obs.json`` at the repo root.

Two jobs:

1. Measure the observability layer's own overhead: the quickstart-sized
   adaptive run is timed with the null registry (the default) and again
   inside a collection window.  The disabled path must stay within noise;
   the enabled path is reported, not asserted (collection is allowed to
   cost something).  The disabled helpers' own cost is reported as ns
   per call of ``counter().inc()``, ``histogram().observe()`` and an
   empty ``span`` block.
2. Write a ``BENCH_obs.json`` perf snapshot — per-phase simulated
   seconds, the timeline summary (per-series tail quantiles over the
   simulator's per-interval records), anomaly alerts,
   partitioner switching, message counters and sweep task-seconds
   quantiles — the machine-readable baseline the ``python -m repro
   benchdiff`` CI gate compares against.  Simulated-seconds sections are
   machine-independent (the report runs under the deterministic
   partitioner cost model); wall-clock sections live under keys the
   gate's default ignore rules skip.
"""

from __future__ import annotations

import json
import time
import timeit
from pathlib import Path

from repro import obs
from repro.obs.report import collect_run_report, quickstart_scenario
from repro.sweep import run_sweep

REPO_ROOT = Path(__file__).resolve().parents[1]
SNAPSHOT_PATH = REPO_ROOT / "BENCH_obs.json"

#: fast, trace-free scenarios the sweep section executes for the
#: ``sweep.task_seconds`` histogram (a few observations for quantiles)
SWEEP_SCENARIOS = ("fig1", "fig2", "table1", "table2")


#: calls per timing repeat of the disabled-helper microbenchmark
_NULL_CALLS = 100_000

#: the disabled call sites timed, as the hot paths write them
_NULL_SITES = {
    "disabled_counter_inc_ns": "obs.counter('hot.iters').inc()",
    "disabled_histogram_observe_ns": "obs.histogram('hot.s').observe(0.5)",
    "disabled_span_ns": "with obs.span('hot.iter'):\n    pass",
}


def _disabled_ns_per_call() -> dict:
    """Best-of-5 nanoseconds per disabled helper call (no window open)."""
    return {
        key: min(timeit.repeat(
            stmt, globals={"obs": obs}, number=_NULL_CALLS, repeat=5
        )) / _NULL_CALLS * 1e9
        for key, stmt in _NULL_SITES.items()
    }


def _timed_adaptive_run():
    app, policy, runtime = quickstart_scenario()
    trace = runtime.characterize(app, policy, 160)
    t0 = time.perf_counter()
    runtime.run_adaptive(trace, compare_with=("G-MISP+SP", "SFC"))
    return time.perf_counter() - t0


def test_obs_overhead_and_snapshot(tmp_path):
    assert obs.current() is None
    null_ns = _disabled_ns_per_call()
    # Warm-up once (partitioner instance caches, numpy JIT-ish costs).
    _timed_adaptive_run()
    disabled_s = min(_timed_adaptive_run() for _ in range(3))
    with obs.collect():
        enabled_s = min(_timed_adaptive_run() for _ in range(3))

    t0 = time.perf_counter()
    report = collect_run_report()
    report_wall_s = time.perf_counter() - t0
    doc = report.to_dict()

    # A small uncached sweep under its own window feeds the
    # sweep.task_seconds histogram (wall-clock, so reported under an
    # ignored key).
    with obs.collect() as sweep_window:
        for name in SWEEP_SCENARIOS:
            result = run_sweep(
                name, jobs=1, use_cache=False, cache_dir=tmp_path
            )
            assert result.ok and result.tasks
    task_seconds = sweep_window.registry.histogram(
        "sweep.task_seconds"
    ).summary()

    snapshot = {
        "bench": "obs_snapshot",
        "scenario": doc["scenario"],
        "wall_clock": {
            "adaptive_run_disabled_s": disabled_s,
            "adaptive_run_enabled_s": enabled_s,
            "enabled_overhead_pct": (
                100.0 * (enabled_s - disabled_s) / disabled_s
            ),
            "full_report_s": report_wall_s,
            "sweep_task_seconds": task_seconds,
            **null_ns,
        },
        "phases": doc["phases"],
        "timeline": doc["timeline"],
        "obs": {"alerts": doc["obs"]["alerts"]},
        "partitioning": {
            k: v for k, v in doc["partitioning"].items() if k != "usage"
        },
        "partitioner_usage": doc["partitioning"]["usage"],
        "message_center": doc["message_center"],
        "monitoring": doc["monitoring"],
        "runtimes": doc["runtimes"],
        "span_totals_by_path": doc["wall"]["totals_by_path"],
    }
    SNAPSHOT_PATH.write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nwrote {SNAPSHOT_PATH}")
    print(json.dumps(snapshot["wall_clock"], indent=2))

    # The snapshot must carry the acceptance-criteria content.
    assert set(doc["phases"]) == {
        "compute", "comm", "regrid", "partition", "checkpoint", "recovery",
    }
    assert doc["phases"]["compute"] > 0.0
    assert "switches" in doc["partitioning"]
    assert doc["message_center"]["sends"] >= 0.0
    # Tail quantiles: per-interval timeline series and sweep task wall
    # seconds both report p50/p95/p99.
    for summary in doc["timeline"]["series"].values():
        assert {"p50", "p95", "p99"} <= set(summary)
    assert task_seconds["count"] == len(SWEEP_SCENARIOS)
    assert task_seconds["p50"] <= task_seconds["p95"] <= task_seconds["p99"]
    # Timeline + anomaly sections (the run-report acceptance criteria).
    assert doc["timeline"]["num_samples"] > 0
    assert "step_cost_s" in doc["timeline"]["series"]
    assert isinstance(doc["obs"]["alerts"], list)
    # Even fully enabled, collection must not blow the run up (loose
    # bound: the <5% disabled-overhead criterion is checked against the
    # Table 4 bench by the driver; this guards the enabled path).
    assert enabled_s < disabled_s * 2.0
