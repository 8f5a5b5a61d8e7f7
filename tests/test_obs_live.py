"""The live telemetry plane: exposition, snapshots, SLOs, flight recorder.

Unit coverage for :mod:`repro.obs.live` (Prometheus text rendering with
escaping and histogram buckets, the periodic JSONL snapshot exporter,
multi-window SLO burn-rate alerting and its latency ring, the bounded
flight recorder, the ``repro top`` frame renderer).
"""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.live import (
    BURN_THRESHOLD,
    LATENCY_TARGET_S,
    LONG_WINDOW,
    SHORT_WINDOW,
    FlightRecorder,
    HealthStatus,
    SloTracker,
    SnapshotExporter,
    escape_label_value,
    prometheus_name,
    render_dashboard,
    render_prometheus,
)
from repro.obs.metrics import MetricsRegistry, nearest_rank

# -- Prometheus exposition -----------------------------------------------------


class TestRenderPrometheus:
    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""

    def test_counter_gets_total_suffix_and_type_line(self):
        reg = MetricsRegistry()
        reg.counter("serve.submitted", priority="high").inc(3)
        text = render_prometheus(reg)
        assert "# TYPE serve_submitted_total counter" in text
        assert 'serve_submitted_total{priority="high"} 3' in text

    def test_gauge_and_sorted_label_sets(self):
        reg = MetricsRegistry()
        reg.gauge("serve.queue_depth").set(7)
        reg.counter("a.z", lane="b").inc()
        reg.counter("a.z", lane="a").inc()
        text = render_prometheus(reg)
        assert "# TYPE serve_queue_depth gauge" in text
        assert "serve_queue_depth 7" in text
        # label sets under one name render sorted
        assert text.index('a_z_total{lane="a"}') < text.index(
            'a_z_total{lane="b"}'
        )

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", reason='quo"te\\back\nline').inc()
        text = render_prometheus(reg)
        assert 'reason="quo\\"te\\\\back\\nline"' in text

    def test_histogram_buckets_cumulative_and_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        for v in (0.5, 1.5, 120.0):
            h.observe(v)
        text = render_prometheus(reg)
        assert "# TYPE lat histogram" in text
        inf_lines = [
            ln for ln in text.splitlines() if 'le="+Inf"' in ln
        ]
        assert len(inf_lines) == 1
        assert inf_lines[0].endswith(" 3")
        assert "lat_count 3" in text
        assert "lat_sum 122" in text
        # bucket counts are cumulative (monotonically nondecreasing)
        counts = [
            int(ln.rsplit(" ", 1)[1])
            for ln in text.splitlines() if ln.startswith("lat_bucket")
        ]
        assert counts == sorted(counts)

    def test_every_line_parses_as_exposition(self):
        reg = MetricsRegistry()
        reg.counter("serve.shed", reason="queue-full").inc(2)
        reg.gauge("up").set(1)
        reg.histogram("h", priority="low").observe(0.25)
        line_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
            r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
            r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
            r" (NaN|[+-]?Inf|[-+0-9.e]+)$"
        )
        for ln in render_prometheus(reg).splitlines():
            if ln.startswith("#"):
                assert re.match(r"^# TYPE \S+ (counter|gauge|histogram)$", ln)
            else:
                assert line_re.match(ln), ln

    def test_name_sanitization(self):
        assert prometheus_name("serve.dedup_hits") == "serve_dedup_hits"
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"
        assert escape_label_value('a"b') == 'a\\"b'


# -- snapshot exporter ---------------------------------------------------------


class TestSnapshotExporter:
    def test_snapshot_appends_jsonl_and_uptime_monotonic(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("serve.submitted").inc(2)
        now = [100.0]
        path = tmp_path / "telemetry.jsonl"
        exp = SnapshotExporter(reg, path, interval_s=60.0,
                               clock=lambda: now[0])
        exp.snapshot_once()
        now[0] = 103.5
        exp.snapshot_once()
        records = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert len(records) == 2
        assert records[0]["uptime_seconds"] == 0.0
        assert records[1]["uptime_seconds"] == 3.5
        assert (records[1]["metrics"]["counters"]["serve.submitted"][0]
                ["value"] == 2)
        # the uptime gauge is refreshed into the registry for scrapes
        assert reg.gauge("serve.uptime_seconds").value == 3.5
        assert exp.snapshots_written == 2

    def test_extra_merged_and_exceptions_swallowed(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "t.jsonl"
        exp = SnapshotExporter(reg, path, extra=lambda: {"stats": {"ok": 1}})
        rec = exp.snapshot_once()
        assert rec["stats"] == {"ok": 1}

        def _boom():
            raise RuntimeError("no")

        exp.extra = _boom
        exp.snapshot_once()  # must not raise
        assert len(path.read_text().splitlines()) == 2

    def test_stop_flushes_final_snapshot(self, tmp_path):
        reg = MetricsRegistry()
        path = tmp_path / "t.jsonl"
        exp = SnapshotExporter(reg, path, interval_s=3600.0)
        exp.start()
        exp.stop()
        assert exp.snapshots_written == 1
        assert len(path.read_text().splitlines()) == 1

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotExporter(MetricsRegistry(), tmp_path / "t", interval_s=0)


# -- SLO tracker ---------------------------------------------------------------


SLOW = 2 * LATENCY_TARGET_S


class TestSloTracker:
    def test_no_traffic_no_alerts(self):
        t = SloTracker()
        assert t.alerts() == []
        summary = t.summary()
        assert summary["objectives"]["latency_target_s"] == LATENCY_TARGET_S
        assert all(not lane["latency_alerting"]
                   for lane in summary["lanes"].values())

    def test_sustained_latency_burn_alerts(self):
        t = SloTracker()
        # 50% of requests violate a 5% budget -> burn 10x in both windows
        for k in range(LONG_WINDOW):
            t.record_latency("normal", SLOW if k % 2 else 0.1)
        alerts = t.alerts()
        assert [a.series for a in alerts] == ["slo.normal.latency"]
        assert alerts[0].value == pytest.approx(10.0)
        assert alerts[0].mean == pytest.approx(10.0)
        assert alerts[0].zscore == pytest.approx(10.0 / BURN_THRESHOLD)
        assert t.summary()["lanes"]["normal"]["latency_alerting"]

    def test_brief_spike_absorbed_by_long_window(self):
        t = SloTracker()
        # a full healthy ring, then four violations: enough to burn the
        # short window (4/32 over a 5% budget = 2.5x) but not the long
        # one (4/256 = 0.3x)
        for _ in range(LONG_WINDOW):
            t.record_latency("high", 0.1)
        for _ in range(4):
            t.record_latency("high", SLOW)
        lanes = t.summary()["lanes"]["high"]
        assert lanes["latency_burn_short"] == pytest.approx(
            4 / SHORT_WINDOW / 0.05
        )
        assert lanes["latency_burn_short"] >= BURN_THRESHOLD
        assert lanes["latency_burn_long"] < BURN_THRESHOLD
        assert not lanes["latency_alerting"]
        assert lanes["violations"] == 4
        assert t.alerts() == []

    def test_shed_burn_tracked_separately(self):
        t = SloTracker()
        for _ in range(8):
            t.record_admission("low", shed=True)
        alerts = t.alerts()
        assert [a.series for a in alerts] == ["slo.low.shed"]
        assert t.summary()["lanes"]["low"]["sheds"] == 8

    def test_unknown_lane_materializes(self):
        t = SloTracker()
        t.record_latency("bulk", 0.2)
        assert "bulk" in t.summary()["lanes"]

    def test_latency_quantiles_over_the_ring(self):
        t = SloTracker()
        values = [((k * 37) % 101) / 10.0 for k in range(LONG_WINDOW + 40)]
        for v in values:
            t.record_latency("normal", v)
        ring = sorted(values[-LONG_WINDOW:])
        lane = t.latency()["normal"]
        assert lane["count"] == LONG_WINDOW
        for q, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert lane[key] == nearest_rank(ring, q)
        assert t.latency()["high"] == {
            "count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }


# -- flight recorder -----------------------------------------------------------


class TestFlightRecorder:
    def test_ring_evicts_oldest(self):
        fr = FlightRecorder(capacity=3)
        for k in range(5):
            fr.record("queued", float(k), job=f"job-{k}")
        assert len(fr) == 3
        assert [e["job"] for e in fr.tail()] == ["job-2", "job-3", "job-4"]
        assert fr.recorded == 5

    def test_tail_bounds(self):
        fr = FlightRecorder(capacity=8)
        for k in range(4):
            fr.record("e", float(k))
        assert len(fr.tail(2)) == 2
        assert fr.tail(0) == []
        assert len(fr.tail(99)) == 4

    def test_dump_writes_header_then_events(self, tmp_path):
        fr = FlightRecorder(capacity=2)
        for k in range(3):
            fr.record("shed", float(k), reason="queue-full")
        path = tmp_path / "flight.jsonl"
        assert fr.dump(path) == 2
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        assert lines[0]["kind"] == "flight-recorder"
        assert lines[0]["capacity"] == 2
        assert lines[0]["recorded"] == 3
        assert lines[0]["dumped"] == 2
        assert [ln["kind"] for ln in lines[1:]] == ["shed", "shed"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


# -- dashboard rendering -------------------------------------------------------


def _snapshot(**over):
    snap = {
        "op": "stats-tick",
        "uptime_seconds": 12.5,
        "stats": {
            "counters": {"submitted": 10, "completed": 7, "shed": 1,
                         "dedup_hits": 2, "cache_hits": 1},
            "queue_depth": 3,
            "queue_capacity": 8,
            "queue_by_priority": {"high": 1, "normal": 2, "low": 0},
            "inflight": 2,
        },
        "health": {"live": True, "ready": True,
                   "checks": {"workers": 2, "workers_alive": 2}},
        "latency": {"normal": {"count": 7, "p50": 0.01, "p95": 0.05,
                               "p99": 0.09}},
        "slo": {"lanes": {"normal": {
            "latency_burn_short": 0.5, "latency_burn_long": 0.4,
            "shed_burn_short": 2.5, "shed_burn_long": 2.5,
            "latency_alerting": False, "shed_alerting": True,
        }}},
        "flight_tail": [{"kind": "queued", "t": 1.25, "job": "job-1",
                         "scenario": "srv-quick", "priority": "normal"}],
    }
    snap.update(over)
    return snap


class TestRenderDashboard:
    def test_frame_carries_the_load_bearing_numbers(self):
        frame = render_dashboard(_snapshot())
        assert "READY" in frame
        assert "queue    3/8" in frame
        assert "submitted 10" in frame
        assert "dedup 2 (20%)" in frame
        assert "normal" in frame and "0.050" in frame  # p95
        assert "job-1" in frame
        # the alerting shed lane is flagged
        assert any(ln.strip().startswith("!") for ln in frame.splitlines())

    def test_throughput_delta_from_previous_frame(self):
        prev = _snapshot(uptime_seconds=10.0)
        prev["stats"] = dict(prev["stats"])
        prev["stats"]["counters"] = {"completed": 2}
        frame = render_dashboard(_snapshot(), previous=prev)
        assert "2.00 jobs/s" in frame  # (7-2)/(12.5-10.0)

    def test_minimal_snapshot_renders(self):
        frame = render_dashboard({"stats": {}, "health": {}})
        assert "repro top" in frame

    def test_health_status_to_dict(self):
        doc = HealthStatus(live=True, ready=False,
                           checks={"queue_depth": 4}).to_dict()
        assert doc == {"live": True, "ready": False,
                       "checks": {"queue_depth": 4}}
