"""Causal tracing: error recording, thread safety, flows, Chrome export."""

from __future__ import annotations

import json
import threading

import pytest

from repro import obs
from repro.agents.adm import ApplicationDelegatedManager
from repro.agents.component import ManagedComponent
from repro.agents.component_agent import ComponentAgent
from repro.agents.message_center import MessageCenter
from repro.agents.messages import Message
from repro.gridsys import sp2_blue_horizon
from repro.obs.chrome import chrome_trace_events
from repro.obs.tracing import Tracer


class TestSpanErrors:
    def test_exception_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError, match="boom"):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        inner, outer = tracer.records
        assert inner.attrs == {"error": True, "error_type": "RuntimeError"}
        assert outer.attrs == {"error": True, "error_type": "RuntimeError"}

    def test_stack_unwinds_after_error(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("a"):
                raise ValueError()
        # A fresh span after the failure is a root again, not a child.
        with tracer.span("b"):
            pass
        b = tracer.records[-1]
        assert b.path == "b" and b.depth == 0 and b.parent == 0

    def test_original_attrs_not_mutated_on_error(self):
        tracer = Tracer()
        span = tracer.span("s", k=1)
        with pytest.raises(ValueError):
            with span:
                raise ValueError()
        assert span.attrs == {"k": 1}


class TestThreadSafety:
    def test_two_threads_do_not_corrupt_paths(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)
        errors: list[Exception] = []

        def work(name):
            try:
                for _ in range(200):
                    with tracer.span(f"{name}.outer"):
                        barrier.wait(timeout=5)
                        with tracer.span(f"{name}.inner"):
                            pass
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(n,)) for n in ("t0", "t1")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Every inner span nests under its own thread's outer span.
        for r in tracer.records:
            if r.name.endswith(".inner"):
                prefix = r.name.split(".")[0]
                assert r.path == f"{prefix}.outer/{prefix}.inner"
                assert r.depth == 1
        tids = {r.tid for r in tracer.records}
        assert len(tids) == 2

    def test_null_tracer_is_allocation_free(self):
        """Outside a window every span is one shared no-op, even for a
        handler whose message carries a flow id."""
        assert obs.current() is None
        s1 = obs.span("a")
        s2 = obs.span("b", k=1)
        assert s1 is s2
        msg = Message(sender="a", dest="b", topic="ping", trace_ctx=5)
        assert obs.handler_span("h", msg) is s1


class TestFlows:
    def test_send_stamps_flow_and_handler_consumes_it(self):
        with obs.collect() as window:
            mc = MessageCenter()
            mc.register("a")
            mc.register("b")
            msg = Message(sender="a", dest="b", topic="ping")
            assert msg.trace_ctx is None
            mc.send(msg)
            assert msg.trace_ctx == 1
            got = mc.receive("b")
            with obs.handler_span("b.handle", got):
                pass
        tracer = window.tracer
        phases = [(f.phase, f.id) for f in tracer.flows]
        assert phases == [("s", 1), ("f", 1)]
        start, end = tracer.flows
        send_span = next(r for r in tracer.records if r.name == "mc.send")
        handle_span = next(
            r for r in tracer.records if r.name == "b.handle"
        )
        assert start.sid == send_span.sid
        assert end.sid == handle_span.sid

    def test_disabled_send_does_not_stamp(self):
        mc = MessageCenter()
        mc.register("a")
        mc.register("b")
        msg = Message(sender="a", dest="b", topic="ping")
        mc.send(msg)
        assert msg.trace_ctx is None

    def test_adm_and_ca_spans_link_to_sends(self):
        cluster = sp2_blue_horizon(4)
        with obs.collect() as window:
            mc = MessageCenter()
            adm = ApplicationDelegatedManager(mc, cluster)
            comp = ManagedComponent(
                name="c0", cluster=cluster, node_id=0, total_work=1e8
            )
            ca = ComponentAgent(comp, mc)
            adm.launch_agent(ca)
            mc.publish(
                "test", "requirement-violated.throughput",
                {"component": "c0", "throughput": 0.0}, time=1.0,
            )
            adm.tick(1.0)   # handles the violation, directs migration
            ca.tick(2.0)    # handles the actuate order, sends the ack
            adm.tick(3.0)   # handles the ack
        tracer = window.tracer
        names = {r.name for r in tracer.records}
        assert {"mc.publish", "mc.send", "adm.handle", "ca.handle"} <= names
        ends = {f.id for f in tracer.flows if f.phase == "f"}
        starts = {f.id for f in tracer.flows if f.phase == "s"}
        assert ends and ends <= starts
        # The CA actually migrated on the ADM's order.
        assert comp.node_id != 0

    def test_import_spans_re_roots_and_remaps(self):
        worker = Tracer()
        with worker.span("execsim.run"):
            with worker.span("partition"):
                pass
        parent = Tracer()
        with parent.span("sweep.batch"):
            parent.import_spans(
                worker.to_dicts(), prefix="sweep.worker/s1", offset=100.0
            )
        paths = {r.path for r in parent.records}
        assert "sweep.worker/s1/execsim.run" in paths
        assert "sweep.worker/s1/execsim.run/partition" in paths
        imported = [r for r in parent.records if r.path.startswith("sweep.")
                    and r.name != "sweep.batch"]
        assert all(r.start >= 100.0 for r in imported)
        local_sids = {
            r.sid for r in parent.records if r.name == "sweep.batch"
        }
        assert all(r.sid not in local_sids for r in imported)
        assert len({r.tid for r in imported}) == 1
        run = next(r for r in imported if r.name == "execsim.run")
        part = next(r for r in imported if r.name == "partition")
        assert part.parent == run.sid


class TestChromeExport:
    def _trace_with_flow(self):
        with obs.collect() as window:
            mc = MessageCenter()
            mc.register("a")
            mc.register("b")
            mc.send(Message(sender="a", dest="b", topic="ping"))
            got = mc.receive("b")
            with obs.handler_span("b.handle", got):
                pass
        return window.tracer

    def test_document_shape(self):
        doc = chrome_trace_events(self._trace_with_flow())
        assert isinstance(doc["traceEvents"], list)
        json.dumps(doc)
        assert doc["traceEvents"][0]["ph"] == "M"

    def test_ts_monotonic_and_x_events_complete(self):
        doc = chrome_trace_events(self._trace_with_flow())
        events = doc["traceEvents"]
        ts = [e["ts"] for e in events if "ts" in e]
        assert ts == sorted(ts)
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] > 0
                assert isinstance(e["tid"], int)

    def test_flow_pairs_match_by_id(self):
        doc = chrome_trace_events(self._trace_with_flow())
        events = doc["traceEvents"]
        starts = {e["id"] for e in events if e["ph"] == "s"}
        ends = {e["id"] for e in events if e["ph"] == "f"}
        assert starts == ends != set()
        f_events = [e for e in events if e["ph"] == "f"]
        assert all(e["bp"] == "e" for e in f_events)
        for e in events:
            if e["ph"] in ("s", "f"):
                assert e["name"] == "message" and e["cat"] == "flow"

    def test_attrs_are_jsonable(self):
        tracer = Tracer()
        with tracer.span("s", obj=object(), n=3, flag=True):
            pass
        doc = chrome_trace_events(tracer)
        json.dumps(doc)
        args = [e for e in doc["traceEvents"] if e["ph"] == "X"][0]["args"]
        assert args["n"] == 3 and args["flag"] is True
        assert isinstance(args["obj"], str)
