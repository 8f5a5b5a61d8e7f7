"""Round-trip tests for the JSON / JSONL exporters."""

from __future__ import annotations

import io
import json

from repro.obs.export import export_json, export_jsonl, observability_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer


def _populated_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("mc.sends").inc(3)
    reg.counter("mc.dead_letters", reason="timeout").inc()
    reg.gauge("mc.mailbox_hwm", port="adm").set_max(7)
    h = reg.histogram("sweep.task_seconds", scenario="fig1")
    for v in (0.5, 1.0, 2.0, 4.0):
        h.observe(v)
    return reg


class TestSnapshotExportRoundTrip:
    def test_empty_registry_round_trips(self, tmp_path):
        doc = observability_snapshot(MetricsRegistry())
        path = tmp_path / "empty.json"
        export_json(doc, path)
        assert json.loads(path.read_text()) == doc

    def test_labeled_instruments_round_trip(self, tmp_path):
        doc = observability_snapshot(_populated_registry())
        path = tmp_path / "snap.json"
        export_json(doc, path)
        back = json.loads(path.read_text())
        assert back == doc
        flat = json.dumps(back)
        assert "mc.sends" in flat
        assert "sweep.task_seconds" in flat

    def test_stream_and_path_targets_agree(self, tmp_path):
        doc = observability_snapshot(_populated_registry())
        buf = io.StringIO()
        export_json(doc, buf)
        path = tmp_path / "snap.json"
        export_json(doc, path)
        assert buf.getvalue() == path.read_text()
        assert buf.getvalue().endswith("\n")

    def test_export_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "snap.json"
        export_json({"k": 1}, path)
        assert json.loads(path.read_text()) == {"k": 1}

    def test_snapshot_with_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        doc = observability_snapshot(
            _populated_registry(), tracer, spans=True
        )
        assert doc["trace"]["counts_by_path"]["outer/inner"] == 1
        assert len(doc["trace"]["spans"]) == 2
        json.dumps(doc)

    def test_snapshot_without_spans_keeps_aggregates_only(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        doc = observability_snapshot(_populated_registry(), tracer)
        assert "spans" not in doc["trace"]
        assert "s" in doc["trace"]["totals_by_path"]


class TestJsonlExport:
    def test_appends_one_compact_line_per_record(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        export_jsonl({"run": 1, "ok": True}, path)
        export_jsonl({"run": 2, "ok": False}, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["run"] for line in lines] == [1, 2]
        assert "\n" not in lines[0]

    def test_jsonl_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "runs.jsonl"
        export_jsonl({"run": 1}, path)
        assert json.loads(path.read_text())["run"] == 1
