"""Timeline recorder: the per-interval records of a run, plus events.

Pragma's control loop reacts to *trajectories* — the monitor/forecaster
feeds the policy base every regrid step — so the reproduction's
observability must keep per-step series, not just end-of-run aggregates.
The :class:`TimelineRecorder` holds the execution simulator's own
:class:`~repro.execsim.simulator.StepRecord` for every committed regrid
interval — the same object the run's
:class:`~repro.execsim.simulator.RunResult` keeps, handed over by
``ExecutionSimulator.commit_interval`` — and a stream of irregular
:meth:`events <TimelineRecorder.event>` from the meta-partitioner
(switches), the resilience layer (checkpoints, recoveries) and the
resource monitor (forecast error sweeps).

The recorder snapshots to JSONL (one ``{"type": "sample"|"event"}`` line
each; :func:`sample_row` names a record's fields for the ``sample``
lines), summarizes itself for run reports — per-series min/mean/max and
nearest-rank p50/p95/p99 — and exposes plain per-field :meth:`series
<TimelineRecorder.series>` for the EWMA anomaly detector
(:mod:`repro.obs.anomaly`).

Outside a collection window there is no recorder: the simulator checks
``obs.current()`` for ``None`` before handing over a record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs.metrics import nearest_rank
from repro.util.fileio import write_file

if TYPE_CHECKING:
    from repro.execsim.simulator import StepRecord

__all__ = ["TimelineRecorder", "sample_row"]

#: numeric series (summary + anomaly scans) -> the StepRecord attribute
SERIES_FIELDS = {
    "compute_s": "compute_time",
    "comm_s": "comm_time",
    "regrid_s": "regrid_time",
    "checkpoint_s": "checkpoint_time",
    "recovery_s": "recovery_time",
    "imbalance_pct": "imbalance_pct",
    "forecast_error_pct": "forecast_error_pct",
    "step_cost_s": "step_cost",
}


def sample_row(record: StepRecord) -> dict:
    """A :class:`~repro.execsim.simulator.StepRecord` as a JSON-ready
    ``sample`` row, under the timeline's series names."""
    row = {
        "step": record.step,
        "t_s": record.start_time,
        "coarse_steps": record.coarse_steps,
        "partitioner": record.label,
        "octant": record.octant,
        "recoveries": record.recoveries,
        "live_procs": len(record.live_procs),
    }
    for name, attr in SERIES_FIELDS.items():
        row[name] = getattr(record, attr)
    return row


@dataclass(slots=True)
class TimelineRecorder:
    """Per-interval records plus irregular events, in arrival order."""

    samples: list[StepRecord] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def record(self, record: StepRecord) -> None:
        """Append one committed interval's record."""
        self.samples.append(record)

    def event(self, kind: str, t: float, **attrs: object) -> None:
        """Append one irregular event (checkpoint, recovery, switch...)."""
        self.events.append({"kind": kind, "t": float(t), **attrs})

    def series(self, name: str) -> list[float]:
        """One numeric series across samples (Nones dropped).

        ``name`` is any key of :data:`SERIES_FIELDS` (``compute_s``,
        ``imbalance_pct``, ``forecast_error_pct``, ``step_cost_s``, ...).
        """
        if name not in SERIES_FIELDS:
            raise KeyError(
                f"unknown timeline series {name!r}; choose from "
                f"{tuple(SERIES_FIELDS)}"
            )
        attr = SERIES_FIELDS[name]
        out = []
        for s in self.samples:
            v = getattr(s, attr)
            if v is not None:
                out.append(float(v))
        return out

    def events_by_kind(self) -> dict[str, int]:
        """Event count per kind (sorted by kind)."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> dict:
        """JSON-ready roll-up: counts plus per-series stats with quantiles."""
        series_stats: dict[str, dict] = {}
        for name in SERIES_FIELDS:
            values = self.series(name)
            if not values:
                continue
            ordered = sorted(values)
            series_stats[name] = {
                "count": len(values),
                "min": ordered[0],
                "max": ordered[-1],
                "mean": sum(values) / len(values),
                "p50": nearest_rank(ordered, 0.50),
                "p95": nearest_rank(ordered, 0.95),
                "p99": nearest_rank(ordered, 0.99),
            }
        return {
            "num_samples": len(self.samples),
            "num_events": len(self.events),
            "coarse_steps": sum(s.coarse_steps for s in self.samples),
            "partitioner_usage": self._usage(),
            "events_by_kind": self.events_by_kind(),
            "series": series_stats,
        }

    def _usage(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.samples:
            out[s.label] = out.get(s.label, 0) + 1
        return dict(sorted(out.items()))

    def to_dicts(self) -> list[dict]:
        """Samples then events as typed plain dicts (the JSONL rows)."""
        rows = [{"type": "sample", **sample_row(s)} for s in self.samples]
        rows.extend({"type": "event", **e} for e in self.events)
        return rows

    def to_jsonl(self, target: str | Path) -> Path:
        """Write the timeline as JSON Lines; returns the path."""
        text = "".join(
            json.dumps(row, sort_keys=True) + "\n" for row in self.to_dicts()
        )
        return write_file(target, text.encode("utf-8"))

    def reset(self) -> None:
        """Drop all samples and events."""
        self.samples.clear()
        self.events.clear()
