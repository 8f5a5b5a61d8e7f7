"""Shared pieces: checkout paths, metric declarations, summary statistics."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

#: the checkout the benchmark runs in (the parent of this directory)
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: everything the benchmark writes lives under here (git-ignored)
WORK = ROOT / ".perfbench"
#: shared RM3D traces, prepared once per checkout
TRACE_DIR = WORK / "traces"

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 5

#: end-to-end metrics (tracing off), every workload reports each one
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "replay_s": "s",
    "regrid_p50_ms": "ms",
    "regrid_p95_ms": "ms",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: time metrics every run measures (rescaled to the nominal host); the
#: p99 latency is reported by traced runs only: on the shared 2-core host
#: it follows other tenants' load, and over ten serve-hot runs its spread
#: reached 0.36, beyond any bound an end-to-end metric may have
TIMED = (*(name for name in END_TO_END if name != "peak_rss_mb"), "latency_p99_ms")

#: per-layer metrics (one traced run), every workload reports each one
PER_LAYER = {
    "policy.classify_s": "s/op",
    "policy.classify_calls": "count/op",
    "policy.lookup_s": "s/op",
    "core.decide_s": "s/op",
    "partitioners.units_s": "s/op",
    "partitioners.units_built": "count/op",
    "amr.load_map_s": "s/op",
    "amr.load_map_calls": "count/op",
    "partitioners.pbd_isp_s": "s/op",
    "partitioners.pbd_isp_calls": "count/op",
    "partitioners.gmisp_sp_s": "s/op",
    "partitioners.gmisp_sp_calls": "count/op",
    "partitioners.other_s": "s/op",
    "partitioners.other_calls": "count/op",
    "partitioners.evaluate_s": "s/op",
    "execsim.cost_s": "s/op",
    "execsim.self_s": "s/op",
    "partitioners.share": "ratio",
    "execsim.share": "ratio",
    "policy.share": "ratio",
    "serve.parse_s": "s/op",
    "serve.encode_s": "s/op",
    "serve.submit_s": "s/op",
    "sweep.cache_get_s": "s/op",
    "sweep.cache_get_calls": "count/op",
    "sweep.cache_put_s": "s/op",
    "sweep.cache_put_calls": "count/op",
    "sweep.cache_put_bytes": "bytes/op",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.execute_s": "s/op",
    "serve.cache_hit_share": "ratio",
    "serve.dedup_share": "ratio",
    "serve.exec_share": "ratio",
    "loadgen.late_ms": "ms",
    "trace.overhead": "ratio",
    "tail.latency_p99_ms": "ms",
    "host.speed": "ratio",
    **{f"host.raw_{name}": "ms" if name.endswith("_ms") else END_TO_END[name]
       for name in TIMED},
}


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``samples``."""
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def median(samples: list[float]) -> float:
    """The median of ``samples``."""
    return float(statistics.median(samples))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def prepare_trace(spec: str) -> None:
    """Generate the shared trace ``spec`` on disk if it is missing.

    Runs in a child interpreter so that neither its time nor its memory
    lands in the measuring process.  The reference trace takes ~40 s to
    generate and is done once per checkout, before any timed run.
    """
    if (TRACE_DIR / f"rm3d_{spec}_trace.json.gz").is_file():
        return
    subprocess.run(
        [sys.executable, str(Path(__file__).with_name("probe.py")),
         "--prepare", spec],
        env=child_env(), cwd=ROOT, check=True, timeout=900,
    )


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
