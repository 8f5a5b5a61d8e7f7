"""JSON / JSONL exporters for metrics snapshots and span traces.

Everything here emits plain-Python structures so the output is stable,
diffable and consumable by the ``BENCH_obs.json`` perf-snapshot hook and
the ``python -m repro report`` CLI verb.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING

from repro.util.fileio import write_file

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracing import Tracer

__all__ = ["observability_snapshot", "export_json", "export_jsonl"]


def observability_snapshot(
    registry: "MetricsRegistry",
    tracer: "Tracer | None" = None,
    *,
    spans: bool = False,
) -> dict:
    """Metrics (and optionally spans) as one JSON-ready document.

    ``spans=False`` keeps only the per-path aggregates — individual span
    records can be large for long runs.
    """
    doc: dict = {"metrics": registry.snapshot()}
    if tracer is not None:
        doc["trace"] = {
            "totals_by_path": tracer.totals_by_path(),
            "counts_by_path": tracer.counts_by_path(),
        }
        if spans:
            doc["trace"]["spans"] = tracer.to_dicts()
    return doc


def export_json(
    doc: dict, target: str | Path | IO[str], *, indent: int = 2
) -> None:
    """Write ``doc`` as JSON to a path or an open text stream."""
    if hasattr(target, "write"):
        json.dump(doc, target, indent=indent, sort_keys=True)
        target.write("\n")
        return
    text = json.dumps(doc, indent=indent, sort_keys=True) + "\n"
    write_file(target, text.encode("utf-8"))


def export_jsonl(record: dict, target: str | Path) -> None:
    """Append one compact JSON line (time-series of run snapshots)."""
    path = Path(target)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True))
        fh.write("\n")
