"""The ``adapt-paper`` workload: the paper's managed replay, timed per regrid.

One op is one :meth:`ExecutionSimulator.run` of the reference RM3D trace
(202 regrids) on ``sp2_blue_horizon(64)`` under a fresh
:class:`MetaPartitioner` — the Table 4 set-up.  A benchmark-side selector
wraps the meta-partitioner and stamps every ``decide`` call: the time
between consecutive calls is one regrid interval, the cost the management
loop adds to each regrid of a running application.  The same hook takes
the interleaved calibration slices, outside the stamped intervals.

The replayed trace is fixed (its digest is checked after every op); the
seed only shifts the calibration schedule.  The tiny mode replays the
small trace on 16 processors instead.
"""

from __future__ import annotations

import math
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator
from common import ROOT, SETUPS, child_env, median, percentile, prepare_trace
from layers import adaptive_layers
from probe import load_trace
from tracer import Tracer, install_adaptive

from repro.amr.trace import Snapshot
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim import ExecutionSimulator
from repro.execsim.selector import PartitionerSelector, SelectorDecision
from repro.gridsys import sp2_blue_horizon

#: expected replay digest per trace: processors, simulated runtime,
#: mean imbalance and the selector's partitioner usage
DIGESTS = {
    "reference": (64, 404.80013752294064, 15.32138939496915,
                  {"G-MISP+SP": 47, "pBD-ISP": 155}),
    "small": (16, 115.15524220839649, 11.581917018018425,
              {"G-MISP+SP": 6, "pBD-ISP": 34}),
}


#: nominal seconds per replay on the reference host; a run of ``--seconds``
#: makes ``round(seconds / REPLAY_S)`` replays (at least one)
REPLAY_S = {"reference": 19.5, "small": 0.6}


class TimedSelector(PartitionerSelector):
    """Delegates to ``inner`` and stamps the interval between decisions.

    A due calibration slice runs at the top of ``decide``, before the
    next interval's start stamp, so it is excluded from every interval.
    """

    def __init__(self, inner: PartitionerSelector, cal: Calibrator) -> None:
        self.inner = inner
        self.cal = cal
        #: (start, end) perf-counter stamps of each regrid interval
        self.intervals: list[tuple[float, float]] = []
        self.calibration_s = 0.0
        self._mark: float | None = None

    def decide(self, snapshot: Snapshot, previous: Snapshot | None) -> SelectorDecision:
        now = time.perf_counter()
        if self._mark is not None:
            self.intervals.append((self._mark, now))
        self.calibration_s += self.cal.maybe_sample()
        self._mark = time.perf_counter()
        return self.inner.decide(snapshot, previous)

    def finish(self) -> None:
        """Close the last interval (the run has returned)."""
        self.intervals.append((self._mark, time.perf_counter()))


@dataclass
class Replay:
    """One timed op: raw and nominal-host seconds, per-interval samples."""

    ok: bool
    raw_s: float
    nominal_s: float
    factor: float
    #: calibration seconds taken inside the run (excluded from raw_s)
    calibration_s: float
    intervals_raw: list[float] = field(default_factory=list)
    intervals_nominal: list[float] = field(default_factory=list)


def replay_once(trace, spec: str, cal: Calibrator, inject_wrong: bool) -> Replay:
    """Run and check one managed replay of ``trace``."""
    procs, runtime, imbalance, usage = DIGESTS[spec]
    sim = ExecutionSimulator(sp2_blue_horizon(procs), procs)
    selector = TimedSelector(MetaPartitioner(), cal)
    cal.sample()
    t0 = time.perf_counter()
    result = sim.run(trace, selector)
    selector.finish()
    t1 = time.perf_counter()
    cal.sample()
    got = (result.total_runtime + (1.0 if inject_wrong else 0.0),
           result.mean_imbalance_pct, result.partitioner_usage())
    ok = (math.isclose(got[0], runtime, rel_tol=1e-9)
          and math.isclose(got[1], imbalance, rel_tol=1e-9)
          and got[2] == usage)
    if not ok:
        print(f"adapt-paper: wrong replay digest {got}", file=sys.stderr)
    raw = [b - a for a, b in selector.intervals]
    nominal = [(b - a) * cal.factor(a, b) for a, b in selector.intervals]
    raw_s = (t1 - t0) - selector.calibration_s
    factor = cal.factor(t0, t1)
    # what is not in an interval is the run's preamble before the first
    # decide; it is rescaled with the whole replay's factor
    nominal_s = sum(nominal) + (raw_s - sum(raw)) * factor
    return Replay(ok, raw_s, nominal_s, factor, selector.calibration_s,
                  raw, nominal)


def timed_setup(cal: Calibrator, spec: str) -> tuple[float, float]:
    """Spawn the set-up probe; (raw, nominal) seconds from spawn to ready."""
    cal.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).with_name("probe.py")),
         "--setup", spec],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline().strip()
        t1 = time.perf_counter()
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    cal.sample()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
    return t1 - t0, (t1 - t0) * cal.factor(t0, t1)


def _summary(replays: list[Replay]) -> tuple[dict, dict]:
    """(nominal, raw) end-to-end time metrics over ``replays``."""
    out = []
    for attr_s, attr_i in (("nominal_s", "intervals_nominal"),
                           ("raw_s", "intervals_raw")):
        samples = [x for r in replays for x in getattr(r, attr_i)]
        ms = [1e3 * x for x in samples]
        out.append({
            "replay_s": median([getattr(r, attr_s) for r in replays]),
            "regrid_p50_ms": percentile(ms, 50),
            "regrid_p95_ms": percentile(ms, 95),
            "ops_per_s": len(samples) / sum(getattr(r, attr_s) for r in replays),
            "latency_p50_ms": percentile(ms, 50),
            "latency_p90_ms": percentile(ms, 90),
            "latency_p99_ms": percentile(ms, 99),
        })
    return out[0], out[1]


def run(opts) -> dict:
    """Run the workload; returns the outcome document for ``run.py``."""
    spec = "small" if opts.tiny else "reference"
    prepare_trace(spec)
    cal = Calibrator(offset_s=random.Random(opts.seed).uniform(0.0, 1.0))
    setups = [timed_setup(cal, spec) for _ in range(1 if opts.trace else SETUPS)]
    trace = load_trace(spec)

    replays: list[Replay] = []
    if opts.trace:
        replays.append(replay_once(trace, spec, cal, opts.inject_wrong))
        tracer = Tracer()
        install_adaptive(tracer)
        traced = replay_once(trace, spec, cal, False)
        replays_all = replays + [traced]
    else:
        for _ in range(max(1, round(opts.seconds / REPLAY_S[spec]))):
            replays.append(replay_once(trace, spec, cal, opts.inject_wrong))
        replays_all = replays
    nominal, raw = _summary(replays)
    nominal["setup_s"] = median([n for _, n in setups])
    raw["setup_s"] = median([r for r, _ in setups])
    nominal["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    doc = {
        "attempted": len(replays_all),
        "failed": sum(not r.ok for r in replays_all),
        "metrics": nominal,
        "raw": raw,
        "speed": cal.speed(),
        "kernel_ms": cal.kernel_ms(),
    }
    if opts.trace:
        doc["layers"] = adaptive_layers(
            tracer, traced, overhead=traced.nominal_s / replays[0].nominal_s
        )
    return doc
