"""The live telemetry plane: exposition, snapshots, SLOs, flight recorder.

Unit coverage for :mod:`repro.obs.live` (Prometheus text rendering with
escaping and histogram buckets, the periodic JSONL snapshot exporter,
multi-window SLO burn-rate alerting, the bounded flight recorder, the
``repro top`` frame renderer) plus the sliding-window mode added to
:class:`repro.obs.metrics.Histogram`.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.config import LiveObsOptions
from repro.obs.live import (
    FlightRecorder,
    HealthStatus,
    SloTracker,
    SnapshotExporter,
    escape_label_value,
    prometheus_name,
    render_dashboard,
    render_prometheus,
)
from repro.obs.metrics import Histogram, MetricsRegistry

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


# -- sliding-window histogram --------------------------------------------------


class TestWindowedHistogram:
    def test_cumulative_default_unchanged(self):
        h = Histogram("h")
        for v in range(1, 11):
            h.observe(float(v))
        assert h.window is None
        assert h.recent() == []
        assert h.count == 10
        assert h.summary()["count"] == 10

    def test_window_keeps_last_n_and_exact_quantiles(self):
        h = Histogram("h", window=4)
        for v in (100.0, 1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        # the early outlier fell out of the ring ...
        assert h.recent() == [1.0, 2.0, 3.0, 4.0]
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0
        s = h.summary()
        assert s["count"] == 4
        assert s["max"] == 4.0
        # ... but the cumulative lifetime totals still remember it
        assert s["lifetime_count"] == 5
        assert h.count == 5
        assert h.total == 110.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", window=0)
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", 0)

    def test_registry_window_set_at_creation(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("h", 8, lane="x")
        h2 = reg.histogram("h", lane="x")  # same instrument, window kept
        assert h1 is h2
        assert h2.window == 8


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


def _tracker(**kw):
    kw.setdefault("latency_target_s", 1.0)
    kw.setdefault("latency_budget", 0.1)
    kw.setdefault("shed_budget", 0.1)
    kw.setdefault("short_window", 4)
    kw.setdefault("long_window", 8)
    kw.setdefault("burn_threshold", 2.0)
    return SloTracker(**kw)


class TestSloTracker:
    def test_no_traffic_no_alerts(self):
        t = _tracker()
        assert t.alerts() == []
        summary = t.summary()
        assert summary["objectives"]["latency_target_s"] == 1.0
        assert all(not lane["latency_alerting"]
                   for lane in summary["lanes"].values())

    def test_sustained_latency_burn_alerts(self):
        t = _tracker()
        # 50% of requests violate a 10% budget -> burn 5x in both windows
        for k in range(16):
            t.record_latency("normal", 2.0 if k % 2 else 0.1)
        alerts = t.alerts()
        assert [a.series for a in alerts] == ["slo.normal.latency"]
        assert alerts[0].value == pytest.approx(5.0)
        assert alerts[0].mean == pytest.approx(5.0)
        assert alerts[0].zscore == pytest.approx(2.5)
        assert t.summary()["lanes"]["normal"]["latency_alerting"]

    def test_brief_spike_absorbed_by_long_window(self):
        t = _tracker()
        # a long healthy history, then one violation: enough to burn the
        # short window (1/4 over a 10% budget = 2.5x) but not the long
        # one (1/8 = 1.25x)
        for _ in range(8):
            t.record_latency("high", 0.1)
        t.record_latency("high", 5.0)
        lanes = t.summary()["lanes"]["high"]
        assert lanes["latency_burn_short"] >= 2.0
        assert lanes["latency_burn_long"] < 2.0
        assert not lanes["latency_alerting"]
        assert t.alerts() == []

    def test_shed_burn_tracked_separately(self):
        t = _tracker()
        for _ in range(8):
            t.record_admission("low", shed=True)
        alerts = t.alerts()
        assert [a.series for a in alerts] == ["slo.low.shed"]
        assert t.summary()["lanes"]["low"]["sheds"] == 8

    def test_unknown_lane_materializes(self):
        t = _tracker()
        t.record_latency("bulk", 0.2)
        assert "bulk" in t.summary()["lanes"]

    @pytest.mark.parametrize("kw", [
        {"latency_target_s": 0},
        {"latency_budget": 0.0},
        {"latency_budget": 1.0},
        {"shed_budget": 1.5},
        {"short_window": 0},
        {"short_window": 9},  # > long_window
        {"burn_threshold": 0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            _tracker(**kw)


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


# -- config --------------------------------------------------------------------


class TestLiveObsOptions:
    def test_disabled_default_builds_null_flight(self):
        opts = LiveObsOptions()
        assert not opts.enabled
        assert opts.build_flight_recorder() is None

    def test_enabled_builds_real_components(self):
        opts = LiveObsOptions(enabled=True, flight_capacity=7,
                              slo_burn_threshold=3.0)
        fr = opts.build_flight_recorder()
        assert isinstance(fr, FlightRecorder)
        assert fr.capacity == 7
        assert opts.build_slo_tracker().burn_threshold == 3.0

    @pytest.mark.parametrize("kw", [
        {"snapshot_interval_s": 0},
        {"flight_capacity": 0},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            LiveObsOptions(**kw)


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
