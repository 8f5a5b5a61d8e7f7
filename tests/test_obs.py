"""Tests for the observability layer (repro.obs) and its instrumentation."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.agents.message_center import MessageCenter
from repro.agents.messages import Message
from repro.core.meta_partitioner import MetaPartitioner
from repro.execsim import ExecutionSimulator, StaticSelector
from repro.gridsys import sp2_blue_horizon
from repro.obs.export import export_json, export_jsonl, observability_snapshot
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.partitioners import ISPPartitioner


@pytest.fixture(autouse=True)
def _obs_disabled_between_tests():
    assert obs.current() is None
    yield
    assert obs.current() is None


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(2.5)
        assert reg.counter_value("x") == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_distinguish_instruments(self):
        reg = MetricsRegistry()
        reg.counter("phase", phase="compute").inc(2)
        reg.counter("phase", phase="comm").inc(5)
        assert reg.counter_value("phase", phase="compute") == 2
        assert reg.counter_value("phase", phase="comm") == 5
        assert reg.sum_counters("phase") == 7

    def test_same_labels_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a", k=1) is reg.counter("a", k=1)
        assert reg.counter("a", k=1) is not reg.counter("a", k=2)

    def test_gauge_set_max(self):
        g = MetricsRegistry().gauge("depth")
        g.set_max(3)
        g.set_max(1)
        assert g.value == 3

    def test_histogram_summary(self):
        h = MetricsRegistry().histogram("imb")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["mean"] == pytest.approx(2.0)

    def test_empty_histogram_summary_is_finite(self):
        s = MetricsRegistry().histogram("h").summary()
        assert s == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                     "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_snapshot_roundtrips_through_json(self):
        reg = MetricsRegistry()
        reg.counter("c", a="x").inc()
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(1.0)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c"][0]["labels"] == {"a": "x"}
        assert snap["gauges"]["g"][0]["value"] == 2.0
        assert snap["histograms"]["h"][0]["value"]["count"] == 1

    def test_reset_clears(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.reset()
        assert reg.counter_value("c") == 0.0


class TestNullDefaults:
    def test_disabled_by_default(self):
        assert obs.current() is None

    def test_null_instruments_record_nothing(self):
        obs.counter("x").inc()
        obs.gauge("y").set(5)
        obs.histogram("z").observe(1.0)
        with obs.span("nothing"):
            pass
        assert obs.counter("x").value == 0.0
        assert obs.gauge("y").value == 0.0
        assert obs.histogram("z").count == 0
        assert obs.current() is None

    def test_null_instruments_are_shared_singletons(self):
        assert obs.counter("a") is obs.counter("b")
        assert obs.counter("a") is obs.gauge("c")

    def test_enable_disable(self):
        with obs.collect() as window:
            assert obs.current() is window
            obs.counter("x").inc()
            with obs.span("s"):
                pass
        assert window.registry.counter_value("x") == 1.0
        assert [r["name"] for r in window.tracer.to_dicts()] == ["s"]
        assert obs.current() is None

    def test_collect_window_restores_previous(self):
        with obs.collect() as outer:
            with obs.collect() as window:
                assert obs.current() is window
                obs.counter("inside").inc()
            assert obs.current() is outer
        assert obs.current() is None
        assert window.registry.counter_value("inside") == 1.0
        assert outer.registry.counter_value("inside") == 0.0


class TestContextLocalWindows:
    def test_interleaved_windows_stay_separate(self):
        """Two threads interleave their windows as A-enter, B-enter,
        A-exit, B-exit; each window holds only its own thread's writes
        and no window is left installed afterwards."""
        barrier = threading.Barrier(2, timeout=10)
        windows = {}
        enabled_after = {}

        def thread_a():
            with obs.collect() as window:
                obs.counter("a").inc()
                barrier.wait()  # A entered
                barrier.wait()  # B entered
                obs.counter("a").inc()
            enabled_after["a"] = obs.current() is not None
            windows["a"] = window
            barrier.wait()  # A exited

        def thread_b():
            barrier.wait()
            with obs.collect() as window:
                obs.counter("b").inc()
                barrier.wait()
                barrier.wait()
                obs.counter("b").inc()
            enabled_after["b"] = obs.current() is not None
            windows["b"] = window

        threads = [threading.Thread(target=fn) for fn in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert windows["a"].registry.counter_value("a") == 2.0
        assert windows["a"].registry.counter_value("b") == 0.0
        assert windows["b"].registry.counter_value("b") == 2.0
        assert windows["b"].registry.counter_value("a") == 0.0
        assert enabled_after == {"a": False, "b": False}
        assert obs.current() is None

    def test_new_thread_starts_with_null_sinks(self):
        seen = {}
        with obs.collect():
            t = threading.Thread(
                target=lambda: seen.update(window=obs.current())
            )
            t.start()
            t.join(timeout=10)
        assert seen == {"window": None}


class TestTracer:
    def test_nested_paths(self):
        t = Tracer()
        with t.span("run"):
            with t.span("interval", step=4):
                pass
            with t.span("interval", step=8):
                pass
        paths = t.counts_by_path()
        assert paths == {"run": 1, "run/interval": 2}
        assert t.records[0].attrs == {"step": 4}
        assert all(r.duration >= 0.0 for r in t.records)

    def test_totals_cover_children(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        totals = t.totals_by_path()
        assert totals["outer"] >= totals["outer/inner"]

    def test_reset(self):
        t = Tracer()
        with t.span("s"):
            pass
        t.reset()
        assert t.to_dicts() == []


class TestExport:
    def test_export_json_file(self, tmp_path):
        path = tmp_path / "snap.json"
        export_json({"a": 1}, path)
        assert json.loads(path.read_text()) == {"a": 1}

    def test_export_jsonl_appends(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        export_jsonl({"run": 1}, path)
        export_jsonl({"run": 2}, path)
        lines = path.read_text().splitlines()
        assert [json.loads(ln)["run"] for ln in lines] == [1, 2]

    def test_observability_snapshot_shape(self):
        reg = MetricsRegistry()
        tracer = Tracer()
        reg.counter("c").inc()
        with tracer.span("s"):
            pass
        doc = observability_snapshot(reg, tracer, spans=True)
        assert doc["metrics"]["counters"]["c"][0]["value"] == 1.0
        assert doc["trace"]["counts_by_path"] == {"s": 1}
        assert doc["trace"]["spans"][0]["name"] == "s"


class TestMessageCenterPubSub:
    def _mc(self):
        mc = MessageCenter()
        mc.register("a")
        mc.register("b")
        return mc

    def test_round_trip(self):
        """register -> subscribe -> publish -> unsubscribe -> unregister."""
        mc = self._mc()
        mc.subscribe("b", "octant")
        assert mc.publish("a", "octant", {"v": 1}) == 1
        msg = mc.receive("b")
        assert msg is not None and msg.payload == {"v": 1}
        mc.unsubscribe("b", "octant")
        assert mc.publish("a", "octant", {"v": 2}) == 0
        assert mc.receive("b") is None
        mc.unregister("b")
        assert not mc.has_port("b")

    def test_unsubscribe_prunes_empty_topics(self):
        mc = self._mc()
        mc.subscribe("a", "t1")
        mc.subscribe("b", "t1")
        mc.unsubscribe("a", "t1")
        assert mc.topics() == ("t1",)
        mc.unsubscribe("b", "t1")
        assert mc.topics() == ()

    def test_unregister_prunes_empty_topics(self):
        mc = self._mc()
        mc.subscribe("b", "t1")
        mc.subscribe("b", "t2")
        mc.subscribe("a", "t2")
        mc.unregister("b")
        assert mc.topics() == ("t2",)

    def test_unsubscribe_unknown_port_raises(self):
        mc = self._mc()
        with pytest.raises(KeyError):
            mc.unsubscribe("ghost", "t")

    def test_unsubscribe_is_idempotent(self):
        mc = self._mc()
        mc.unsubscribe("a", "never-subscribed")
        mc.subscribe("a", "t")
        mc.unsubscribe("a", "t")
        mc.unsubscribe("a", "t")
        assert mc.topics() == ()

    def test_counters_track_traffic(self):
        with obs.collect() as window:
            mc = self._mc()
            mc.subscribe("a", "t")
            mc.subscribe("b", "t")
            mc.publish("a", "t", {})
            mc.send(Message(sender="a", dest="b", topic="direct", payload={}))
        reg = window.registry
        assert reg.counter_value("mc.publishes") == 1.0
        assert reg.counter_value("mc.fanout", topic="t") == 2.0
        # two fan-out deliveries plus one direct send
        assert reg.counter_value("mc.sends") == 3.0
        assert window.registry.gauge("mc.mailbox_hwm", port="b").value == 2.0


class TestSimulatorInstrumentation:
    def test_meta_partitioner_counters(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        with obs.collect() as window:
            meta = MetaPartitioner()
            res = sim.run(small_rm3d_trace, meta)
        reg = window.registry
        assert reg.sum_counters("meta.classifications") == len(res.records)
        switches = sum(
            1
            for prev, cur in zip(res.records, res.records[1:])
            if prev.label != cur.label
        )
        assert reg.counter_value("meta.switches") == switches
        assert reg.counter_value("meta.policy_lookups", result="hit") == len(
            res.records
        )

    def test_spans_cover_the_run(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        with obs.collect() as window:
            sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        counts = window.tracer.counts_by_path()
        assert counts["execsim.run"] == 1
        assert counts["execsim.run/partition"] == len(small_rm3d_trace)

    def test_disabled_run_is_equivalent(self, small_rm3d_trace):
        sim = ExecutionSimulator(sp2_blue_horizon(4))
        baseline = sim.run(small_rm3d_trace, StaticSelector(ISPPartitioner()))
        with obs.collect():
            observed = sim.run(
                small_rm3d_trace, StaticSelector(ISPPartitioner())
            )
        # compute/comm are deterministic; regrid embeds *measured*
        # partitioner wall-time, so the totals only match loosely.
        assert sum(r.compute_time for r in observed.records) == pytest.approx(
            sum(r.compute_time for r in baseline.records)
        )
        assert sum(r.comm_time for r in observed.records) == pytest.approx(
            sum(r.comm_time for r in baseline.records)
        )
        assert observed.total_runtime == pytest.approx(
            baseline.total_runtime, rel=1e-2
        )
        assert len(observed.records) == len(baseline.records)


class TestRunReport:
    @pytest.fixture(scope="class")
    def tiny_report(self):
        from repro.amr.regrid import RegridPolicy
        from repro.apps import RM3D, RM3DConfig
        from repro.core.pragma import PragmaRuntime
        from repro.obs.report import collect_run_report

        config = RM3DConfig(
            shape=(16, 8, 8), interface_x=5.0, shock_entry_snapshot=2.0,
            reshock_snapshot=8.0, num_seed_clumps=2, num_mixing_structures=3,
        )
        policy = RegridPolicy(ratio=2, thresholds=(0.2, 0.45, 0.7),
                              regrid_interval=4)
        runtime = PragmaRuntime(cluster=sp2_blue_horizon(4), num_procs=4)
        return collect_run_report(
            app=RM3D(config), policy=policy, runtime=runtime,
            num_coarse_steps=24, online_steps=12,
        )

    def test_phases_present_and_positive(self, tiny_report):
        d = tiny_report.to_dict()
        assert set(d["phases"]) == {
            "compute", "comm", "regrid", "partition", "checkpoint",
            "recovery",
        }
        assert d["phases"]["compute"] > 0.0

    def test_partitioning_and_messaging_sections(self, tiny_report):
        d = tiny_report.to_dict()
        assert "switches" in d["partitioning"]
        assert d["partitioning"]["policy_hits"] > 0
        assert d["message_center"]["publishes"] > 0
        assert d["monitoring"]["samples"] > 0

    def test_document_is_json_serializable(self, tiny_report):
        doc = json.loads(json.dumps(tiny_report.to_dict()))
        assert doc["scenario"]["num_procs"] == 4

    def test_render_mentions_every_section(self, tiny_report):
        text = tiny_report.render()
        for token in ("compute", "comm", "regrid", "partition", "switches",
                      "message center", "resource monitor"):
            assert token in text

    def test_mismatched_scenario_args_rejected(self):
        from repro.obs.report import collect_run_report

        with pytest.raises(ValueError):
            collect_run_report(app=object())

    def test_collection_disabled_after_report(self, tiny_report):
        assert obs.current() is None


class TestReportCli:
    def test_report_json_to_file(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.obs import report as report_mod

        original_collect = report_mod.collect_run_report

        def tiny_collect(**kwargs):
            from repro.amr.regrid import RegridPolicy
            from repro.apps import RM3D, RM3DConfig
            from repro.core.pragma import PragmaRuntime

            config = RM3DConfig(
                shape=(16, 8, 8), interface_x=5.0, shock_entry_snapshot=2.0,
                reshock_snapshot=8.0, num_seed_clumps=2,
                num_mixing_structures=3,
            )
            return original_collect(
                app=RM3D(config),
                policy=RegridPolicy(ratio=2, thresholds=(0.2, 0.45, 0.7),
                                    regrid_interval=4),
                runtime=PragmaRuntime(cluster=sp2_blue_horizon(4),
                                      num_procs=4),
                num_coarse_steps=kwargs.get("num_coarse_steps", 24),
                online_steps=kwargs.get("online_steps", 8),
            )

        monkeypatch.setattr(
            "repro.obs.report.collect_run_report", tiny_collect
        )
        out = tmp_path / "report.json"
        assert main(["report", "--json", str(out), "--steps", "24",
                     "--online-steps", "8"]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["phases"]) == {"compute", "comm", "regrid",
                                      "partition", "checkpoint",
                                      "recovery"}

    def test_report_rejects_bad_steps(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["report", "--steps", "0"])
