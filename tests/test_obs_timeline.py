"""Timeline recorder, EWMA anomaly detection, and their pipeline wiring."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.execsim.simulator import StepRecord
from repro.obs.anomaly import Alert, EwmaDetector, detect_alerts, detect_series
from repro.obs.metrics import Histogram, nearest_rank
from repro.obs.timeline import TimelineRecorder, sample_row
from repro.partitioners.metrics import PACMetrics

_METRICS = PACMetrics(
    load_imbalance_pct=7.5, comm_volume=0.0, data_migration=0.0,
    partition_time=0.0, overhead=0.0,
)


def _record(step=0, **over):
    base = dict(
        step=step, label="G-MISP+SP", octant="I", coarse_steps=4,
        compute_time=4.0, comm_time=0.4, regrid_time=0.1,
        imbalance_pct=7.5, metrics=_METRICS, checkpoint_time=0.0,
        recovery_time=0.0, recoveries=0, live_procs=tuple(range(16)),
        start_time=float(step), forecast_error_pct=3.0,
    )
    base.update(over)
    return StepRecord(**base)


class TestStepSample:
    """A StepRecord as the timeline's ``sample`` row."""

    def test_step_cost_divides_total_by_coarse_steps(self):
        r = _record(compute_time=4.0, comm_time=0.4, regrid_time=0.1,
                    coarse_steps=4)
        assert r.step_cost == pytest.approx(4.5 / 4)

    def test_zero_coarse_steps_cost_is_zero(self):
        assert _record(coarse_steps=0).step_cost == 0.0

    def test_as_dict_is_json_ready(self):
        d = sample_row(_record())
        json.dumps(d)
        assert set(d) == {
            "step", "t_s", "coarse_steps", "partitioner", "octant",
            "compute_s", "comm_s", "regrid_s", "checkpoint_s",
            "recovery_s", "imbalance_pct", "forecast_error_pct",
            "recoveries", "live_procs", "step_cost_s",
        }
        assert d["t_s"] == 0.0
        assert d["live_procs"] == 16
        assert d["step_cost_s"] == pytest.approx(4.5 / 4)


class TestTimelineRecorder:
    def test_record_and_series(self):
        tl = TimelineRecorder()
        tl.record(_record(0, imbalance_pct=5.0))
        tl.record(_record(4, imbalance_pct=9.0))
        assert tl.series("imbalance_pct") == [5.0, 9.0]

    def test_series_drops_none(self):
        tl = TimelineRecorder()
        tl.record(_record(0, forecast_error_pct=None))
        tl.record(_record(4, forecast_error_pct=2.0))
        assert tl.series("forecast_error_pct") == [2.0]

    def test_unknown_series_raises(self):
        with pytest.raises(KeyError):
            TimelineRecorder().series("nope")

    def test_events_by_kind(self):
        tl = TimelineRecorder()
        tl.event("checkpoint", t=1.0, step=0)
        tl.event("recovery", t=2.0, step=4)
        tl.event("checkpoint", t=3.0, step=8)
        assert tl.events_by_kind() == {"checkpoint": 2, "recovery": 1}

    def test_summary_has_quantiles_and_usage(self):
        tl = TimelineRecorder()
        for k in range(10):
            tl.record(_record(k * 4, imbalance_pct=float(k)))
        s = tl.summary()
        assert s["num_samples"] == 10
        assert s["coarse_steps"] == 40
        assert s["partitioner_usage"] == {"G-MISP+SP": 10}
        stats = s["series"]["imbalance_pct"]
        assert stats["min"] == 0.0 and stats["max"] == 9.0
        # nearest rank: the 5th of 10 samples covers half of them
        assert stats["p50"] == 4.0
        assert stats["p95"] <= stats["p99"] <= stats["max"]
        json.dumps(s)

    @given(st.lists(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        min_size=1, max_size=200,
    ))
    def test_one_quantile_rule(self, values):
        ordered = sorted(values)
        cumulative = Histogram("h")
        tl = TimelineRecorder()
        for k, v in enumerate(values):
            cumulative.observe(v)
            tl.record(_record(k, imbalance_pct=v))
        for q in (0.5, 0.95, 0.99):
            # the bucketed estimate is an upper bound on the exact rank
            assert cumulative.quantile(q) >= nearest_rank(ordered, q)
        stats = tl.summary()["series"]["imbalance_pct"]
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert stats[key] == nearest_rank(ordered, q)

    def test_nearest_rank(self):
        assert nearest_rank([], 0.5) == 0.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_jsonl_roundtrip(self, tmp_path):
        tl = TimelineRecorder()
        tl.record(_record(0))
        tl.event("checkpoint", t=0.5, step=0, seconds=0.1)
        path = tl.to_jsonl(tmp_path / "tl.jsonl")
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["type"] for r in rows] == ["sample", "event"]
        assert rows[0]["partitioner"] == "G-MISP+SP"
        assert rows[1]["kind"] == "checkpoint"

    def test_reset_clears(self):
        tl = TimelineRecorder()
        tl.record(_record(0))
        tl.event("x", t=0.0)
        tl.reset()
        assert not tl.samples and not tl.events


class TestNullTimeline:
    def test_installed_by_default(self):
        assert obs.current() is None

    def test_collect_installs_and_restores(self):
        with obs.collect() as window:
            assert obs.current() is window
            assert isinstance(window.timeline, TimelineRecorder)
        assert obs.current() is None


class TestSimulatorTimeline:
    def test_replay_records_one_sample_per_interval(self, small_rm3d_trace):
        from repro.execsim import ExecutionSimulator, StaticSelector
        from repro.gridsys import sp2_blue_horizon
        from repro.partitioners import ISPPartitioner

        sim = ExecutionSimulator(sp2_blue_horizon(8), num_procs=8)
        with obs.collect() as window:
            res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        tl = window.timeline
        # The timeline holds the run's own records, not copies.
        assert len(tl.samples) == len(res.records)
        assert all(a is b for a, b in zip(tl.samples, res.records))
        first, second = tl.samples[0], tl.samples[1]
        assert first.forecast_error_pct is None
        assert second.forecast_error_pct is not None
        assert sample_row(first)["live_procs"] == 8
        assert second.start_time == pytest.approx(first.total_time)

    def test_online_run_commits_to_the_timeline(self):
        from repro.core.online import OnlineAdaptiveRuntime
        from repro.obs.report import quickstart_scenario

        app, policy, runtime = quickstart_scenario()
        online = OnlineAdaptiveRuntime(
            runtime.cluster, num_procs=runtime.num_procs
        )
        with obs.collect() as window:
            first = online.run(app, policy, 8).result
            second = online.run(app, policy, 8).result
        records = first.records + second.records
        assert len(records) == len(window.timeline.samples) == 4
        assert all(a is b for a, b in zip(window.timeline.samples, records))
        # forecast error restarts at each run's first interval
        assert [r.forecast_error_pct is None for r in records] == [
            True, False, True, False,
        ]
        assert second.total_runtime == pytest.approx(
            sum(r.total_time for r in second.records)
        )

    def test_resilient_replay_emits_checkpoint_and_recovery_events(
        self, small_rm3d_trace
    ):
        from repro.execsim import ExecutionSimulator, StaticSelector
        from repro.gridsys import FailureSchedule, sp2_blue_horizon
        from repro.partitioners import ISPPartitioner

        cluster = sp2_blue_horizon(8)
        cluster.failures.events.extend(
            FailureSchedule.poisson(
                num_nodes=8, horizon=2000.0, mtbf=120.0, mttr=40.0, seed=3
            ).events
        )
        sim = ExecutionSimulator(cluster, num_procs=8)
        with obs.collect() as window:
            res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        kinds = window.timeline.events_by_kind()
        assert kinds.get("checkpoint", 0) == len(res.records)
        if res.num_recoveries:
            assert kinds.get("recovery", 0) == res.num_recoveries
            assert any(s.recoveries for s in window.timeline.samples)

    def test_disabled_path_records_nothing(self, small_rm3d_trace, monkeypatch):
        from repro.execsim import ExecutionSimulator, StaticSelector
        from repro.gridsys import sp2_blue_horizon
        from repro.partitioners import ISPPartitioner

        def refuse(*args, **kwargs):
            raise AssertionError("a timeline was written outside a window")

        monkeypatch.setattr(TimelineRecorder, "record", refuse)
        monkeypatch.setattr(TimelineRecorder, "event", refuse)
        sim = ExecutionSimulator(sp2_blue_horizon(8), num_procs=8)
        res = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        assert res.records
        assert obs.current() is None


class TestSinkCoverage:
    def test_every_sink_reports_every_interval(self, monkeypatch):
        from repro.obs.report import PHASES, collect_run_report

        windows = []
        real_collect = obs.collect

        def capture():
            window = real_collect()
            windows.append(window)
            return window

        monkeypatch.setattr(obs, "collect", capture)
        doc = collect_run_report().to_dict()
        (window,) = windows
        records = window.timeline.samples
        # 3 replays x 40 intervals + 12 online intervals
        assert doc["timeline"]["num_samples"] == 132
        assert doc["partitioning"]["intervals"] == 132
        assert doc["partitioning"]["coarse_steps"] == sum(
            r.coarse_steps for r in records
        )
        for phase, share in PHASES.items():
            want = math.fsum(share(r) for r in records)
            assert doc["phases"][phase] == pytest.approx(want, rel=1e-12)


class TestEwmaDetector:
    def test_flat_series_never_alerts(self):
        assert detect_series("x", [5.0] * 50) == []

    def test_spike_after_warmup_alerts(self):
        values = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 50.0, 1.0]
        alerts = detect_series("step_cost_s", values)
        assert len(alerts) >= 1
        spike = next(a for a in alerts if a.index == 7)
        assert spike.value == 50.0
        assert spike.zscore > 3.0
        assert spike.series == "step_cost_s"

    def test_warmup_suppresses_early_alerts(self):
        # The spike inside the warmup window must not alert.
        alerts = detect_series("x", [1.0, 100.0, 1.0], warmup=5)
        assert alerts == []

    def test_level_shift_stops_alerting_once_absorbed(self):
        values = [1.0] * 10 + [10.0] * 30
        alerts = detect_series("x", values)
        # The transition alerts; the new steady state does not.
        assert alerts
        assert all(a.index < 20 for a in alerts)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            EwmaDetector(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaDetector(z_threshold=0.0)
        with pytest.raises(ValueError):
            EwmaDetector(warmup=0)

    def test_alert_as_dict_is_json_ready(self):
        a = Alert(series="s", index=3, value=9.0, zscore=4.2, mean=1.0,
                  std=0.5)
        json.dumps(a.as_dict())

    def test_detect_alerts_scans_timeline_series(self):
        tl = TimelineRecorder()
        for k in range(12):
            tl.record(
                _record(k * 4, compute_time=400.0 if k == 9 else 4.0)
            )
        alerts = detect_alerts(tl)
        assert any(
            a.series == "step_cost_s" and a.index == 9 for a in alerts
        )


class TestReportIntegration:
    def test_run_report_carries_timeline_and_alerts(self):
        from repro.obs.report import collect_run_report

        report = collect_run_report(
            num_coarse_steps=24, compare_with=("SFC",), online_steps=8
        )
        doc = report.to_dict()
        assert doc["timeline"]["num_samples"] > 0
        assert "step_cost_s" in doc["timeline"]["series"]
        assert isinstance(doc["obs"]["alerts"], list)
        text = report.render()
        assert "-- timeline --" in text
        assert "anomaly alerts" in text
        json.dumps(doc)
