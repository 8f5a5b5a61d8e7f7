"""Server-side live telemetry: wire verbs, health gates, flight dumps.

Integration coverage for the observability plane threaded through
:class:`repro.serve.server.ScenarioServer`: the ``metrics`` / ``health``
/ ``stats-stream`` verbs over the UNIX-domain socket (idle, under
concurrent dispatch, and malformed), readiness transitions, the flight
recorder's capture/dump lifecycle, the SLO tracker's latency ring
behind the dashboard's lane quantiles, and the ``repro top`` CLI.
"""

from __future__ import annotations

import itertools
import json
import socket
import threading

import pytest

from repro.cli import main
from repro.obs.live import (
    CONTENT_TYPE,
    LATENCY_TARGET_S,
    LONG_WINDOW,
    FlightRecorder,
)
from repro.obs.metrics import nearest_rank
from repro.serve.jsonl import Session, serve_socket
from repro.serve.protocol import ProtocolError, parse_request
from repro.serve.server import ScenarioServer
from repro.sweep.scenario import FunctionScenario, register, unregister

# -- test scenarios ------------------------------------------------------------

_GATE = threading.Event()


def _quick(ctx):
    return {"square": ctx.params["x"] ** 2}


def _gated(ctx):
    _GATE.wait(timeout=10.0)
    return {"released": True}


_TEST_SCENARIOS = {
    "live-quick": (_quick, {"x": 3}),
    "live-gated": (_gated, {}),
}


@pytest.fixture(autouse=True)
def _register_scenarios():
    for name, (fn, params) in _TEST_SCENARIOS.items():
        register(FunctionScenario(name, fn, dict(params)), replace=True)
    _GATE.clear()
    yield
    for name in _TEST_SCENARIOS:
        unregister(name)


def make_server(**kwargs):
    kwargs.setdefault("scenario_modules", ())
    return ScenarioServer(**kwargs)


def _connect(path):
    # the listener is already up (serve_socket's ready event), so a
    # plain connect suffices — no filesystem polling with sleeps
    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    client.connect(path)
    return client


class _SocketFixture:
    """A server behind a socket listener, with a line-oriented client."""

    def __init__(self, server, path):
        self.server = server
        self.path = path
        ready = threading.Event()
        self.thread = threading.Thread(
            target=serve_socket, args=(server, path),
            kwargs={"ready": ready}, daemon=True,
        )
        self.thread.start()
        assert ready.wait(timeout=5)
        self.client = _connect(path)
        self.fh = self.client.makefile("rw", encoding="utf-8")

    def ask(self, doc):
        self.fh.write(json.dumps(doc) + "\n")
        self.fh.flush()
        return json.loads(self.fh.readline())

    def close(self):
        try:
            self.ask({"op": "shutdown"})
        except Exception:
            pass
        self.client.close()
        self.thread.join(timeout=10)


@pytest.fixture
def sock_server(tmp_path):
    server = make_server(workers=1)
    fixture = _SocketFixture(server, str(tmp_path / "serve.sock"))
    yield fixture
    fixture.close()
    server.shutdown()


# -- wire verbs over the socket ------------------------------------------------


class TestSocketObservabilityVerbs:
    def test_idle_scrape_metrics_and_health(self, sock_server):
        resp = sock_server.ask({"op": "metrics"})
        assert resp["op"] == "metrics"
        assert resp["content_type"] == CONTENT_TYPE
        # gauges are refreshed even before any traffic
        assert "serve_queue_depth 0" in resp["text"]
        assert "serve_uptime_seconds" in resp["text"]

        health = sock_server.ask({"op": "health"})
        assert health["op"] == "health"
        assert health["live"] is True
        assert health["ready"] is True
        assert health["checks"]["workers_alive"] == 1
        assert health["checks"]["queue_capacity"] == 64

    def test_scrape_during_active_dispatch(self, sock_server):
        """metrics/health answer while a worker is busy executing."""
        accepted = sock_server.ask(
            {"op": "submit", "id": "g", "scenario": "live-gated"}
        )
        assert accepted["status"] in ("queued", "running")
        try:
            # a second connection scrapes while the first job blocks
            side = _connect(sock_server.path)
            fh = side.makefile("rw", encoding="utf-8")
            fh.write('{"op": "metrics"}\n{"op": "health"}\n')
            fh.flush()
            metrics = json.loads(fh.readline())
            assert 'serve_submitted_total{priority="normal"} 1' \
                in metrics["text"]
            health = json.loads(fh.readline())
            assert health["live"] is True
            side.close()
        finally:
            _GATE.set()
        result = sock_server.ask(
            {"op": "result", "id": "g", "timeout_s": 10}
        )
        assert result["status"] == "done"

    def test_stats_stream_yields_count_ticks(self, sock_server):
        sock_server.ask({"op": "submit", "id": "q", "scenario": "live-quick"})
        sock_server.ask({"op": "result", "id": "q", "timeout_s": 10})
        sock_server.fh.write(
            '{"op": "stats-stream", "count": 3, "interval_s": 0, '
            '"flight_tail": 5}\n'
        )
        sock_server.fh.flush()
        ticks = [json.loads(sock_server.fh.readline()) for _ in range(3)]
        assert [t["seq"] for t in ticks] == [0, 1, 2]
        assert all(t["op"] == "stats-tick" and t["of"] == 3 for t in ticks)
        last = ticks[-1]
        assert last["stats"]["counters"]["completed"] == 1
        assert last["health"]["ready"] is True
        assert "normal" in last["latency"]
        assert last["slo"]["lanes"]["normal"]["requests"] == 1
        assert len(last["flight_tail"]) <= 5
        assert any(e["kind"] == "done" for e in last["flight_tail"])
        # uptime strictly increases tick to tick
        assert ticks[0]["uptime_seconds"] <= ticks[-1]["uptime_seconds"]

    @pytest.mark.parametrize("line", [
        '{"op": "metrics-scrape"}',
        '{"op": "stats-stream", "count": 0}',
        '{"op": "stats-stream", "count": "many"}',
        '{"op": "stats-stream", "count": true}',
        '{"op": "stats-stream", "interval_s": -1}',
        '{"op": "stats-stream", "flight_tail": -2}',
    ])
    def test_malformed_observability_requests_rejected(
        self, sock_server, line
    ):
        with pytest.raises(ProtocolError):
            parse_request(line)
        # over the wire the same line produces an error document and the
        # connection survives for the next request
        sock_server.fh.write(line + "\n")
        sock_server.fh.flush()
        assert json.loads(sock_server.fh.readline())["op"] == "error"
        assert sock_server.ask({"op": "health"})["op"] == "health"


# -- health gates --------------------------------------------------------------


class TestHealthGates:
    def test_ready_tracks_lifecycle(self):
        server = make_server(workers=1, start=False)
        try:
            h = server.health()
            assert h.live and not h.ready
            assert h.checks["scheduler_started"] is False
            server.start()
            assert server.health().ready
        finally:
            server.shutdown()
        after = server.health()
        assert after.live and not after.ready
        assert after.checks["admission_open"] is False

    def test_full_queue_blocks_readiness(self):
        server = make_server(workers=1, queue_capacity=1, start=False)
        try:
            server.start()
            server.submit("live-gated")
            # the gated job occupies the worker; fill the queue behind it
            while len(server.queue) < 1:
                server.submit("live-quick", {"x": len(server.queue)})
            h = server.health()
            assert not h.ready
            assert h.checks["queue_has_headroom"] is False
        finally:
            _GATE.set()
            server.shutdown()

    def test_last_commit_age_tracked(self):
        with make_server(workers=1) as server:
            assert server.health().checks["last_commit_age_s"] is None
            server.submit("live-quick").result(timeout=10)
            server.drain(timeout=10)
            age = server.health().checks["last_commit_age_s"]
            assert age is not None and age >= 0.0


# -- flight recorder integration ----------------------------------------------


class TestFlightIntegration:
    def test_events_recorded_and_dumped_on_shutdown(self, tmp_path):
        dump = tmp_path / "flight.jsonl"
        server = make_server(workers=1, flight_dump_path=str(dump))
        server.submit("live-quick").result(timeout=10)
        server.submit("no-such-scenario")
        server.shutdown()
        lines = [json.loads(ln) for ln in dump.read_text().splitlines()]
        assert lines[0]["kind"] == "flight-recorder"
        kinds = {ln["kind"] for ln in lines[1:]}
        assert {"queued", "running", "done", "shed"} <= kinds
        shed = next(ln for ln in lines[1:] if ln["kind"] == "shed")
        assert shed["reason"] == "unknown-scenario"
        assert shed["scenario"] == "no-such-scenario"

    def test_dump_on_demand_to_explicit_path(self, tmp_path):
        with make_server(workers=1) as server:
            server.submit("live-quick").result(timeout=10)
            n = server.dump_flight(tmp_path / "now.jsonl")
            assert n >= 3
            assert (tmp_path / "now.jsonl").exists()

    def test_worker_death_lands_in_the_ring(self):
        def injector(job, attempt):
            return "before" if attempt == 0 else None

        server = make_server(workers=1, death_injector=injector)
        try:
            server.submit("live-quick").result(timeout=10)
        finally:
            server.shutdown()
        kinds = [e["kind"] for e in server._flight.tail()]
        assert "worker-death" in kinds
        assert kinds.index("worker-death") < kinds.index("done")


# -- SLO integration -----------------------------------------------------------


class TestSloIntegration:
    def test_load_sheds_recorded_but_client_errors_not(self):
        server = make_server(workers=1, queue_capacity=1, start=False)
        try:
            server.submit("no-such-scenario")  # client error: not load
            lanes = server._slo.summary()["lanes"]
            assert lanes["normal"]["sheds"] == 0
            server.submit("live-gated")
            while True:  # fill the queue, then one genuine load shed
                handle = server.submit("live-quick",
                                       {"x": server._seq})
                if handle.status == "shed":
                    break
            assert server._slo.summary()["lanes"]["normal"]["sheds"] == 1
        finally:
            _GATE.set()
            server.shutdown()

    def test_latency_recorded_for_done_and_cache_hit(self):
        with make_server(workers=1) as server:
            server.submit("live-quick").result(timeout=10)
            server.drain(timeout=10)
            first = server._slo.summary()["lanes"]["normal"]["requests"]
            assert first == 1
            assert server.live_snapshot()["latency"]["normal"]["count"] == 1
            server.submit("live-quick").result(timeout=10)  # cache hit
            assert (server._slo.summary()["lanes"]["normal"]["requests"]
                    == 2)
            assert server.stats()["counters"]["cache_hits"] == 1
            # the execution and the cache hit share the lane's one ring;
            # the Prometheus histogram counts executions only
            assert server.live_snapshot()["latency"]["normal"]["count"] == 2
            assert server.metrics.histogram(
                "serve.request_latency_seconds", priority="normal"
            ).count == 1

    def test_tick_latency_is_the_slo_ring(self):
        with make_server(workers=1) as server:
            handles = [server.submit("live-quick")]
            handles[0].result(timeout=10)
            server.drain(timeout=10)
            # the rest are cache hits: more than the ring holds
            handles += [server.submit("live-quick")
                        for _ in range(LONG_WINDOW + 7)]
            tick = server.live_snapshot()
        requests = tick["slo"]["lanes"]["normal"]["requests"]
        assert requests == LONG_WINDOW + 8
        lane = tick["latency"]["normal"]
        assert lane["count"] == min(requests, LONG_WINDOW)
        ring = sorted(h._job.finished_t - h._job.submitted_t
                      for h in handles[-LONG_WINDOW:])
        for q, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert lane[key] == nearest_rank(ring, q)

    def test_slo_alerts_reach_the_alert_shape(self):
        # every clock read is one latency target later, so each request
        # takes longer than the target and both windows burn
        ticks = itertools.count(0.0, LATENCY_TARGET_S + 1.0)
        with make_server(workers=1, clock=lambda: next(ticks)) as server:
            for k in range(4):
                server.submit("live-quick", {"x": k}).result(timeout=10)
            server.drain()
            alerts = server.slo_alerts()
            assert [a.series for a in alerts] == ["slo.normal.latency"]
            assert alerts[0].value >= 2.0


# -- snapshot exporter integration --------------------------------------------


def test_snapshot_exporter_runs_with_server(tmp_path):
    path = tmp_path / "telemetry.jsonl"
    server = make_server(
        workers=1, snapshot_path=str(path), snapshot_interval_s=3600.0,
    )
    server.submit("live-quick").result(timeout=10)
    server.drain(timeout=10)
    server.shutdown()  # flushes the final snapshot
    records = [json.loads(ln) for ln in path.read_text().splitlines()]
    assert len(records) >= 1
    final = records[-1]
    assert final["stats"]["counters"]["completed"] == 1
    assert final["uptime_seconds"] >= 0.0
    assert "serve.jobs_terminal" in final["metrics"]["counters"]


# -- repro top -----------------------------------------------------------------


class TestTopVerb:
    def test_once_renders_a_frame_over_the_socket(self, tmp_path, capsys):
        server = make_server(workers=1)
        fixture = _SocketFixture(server, str(tmp_path / "serve.sock"))
        try:
            fixture.ask({"op": "submit", "id": "q",
                         "scenario": "live-quick"})
            fixture.ask({"op": "result", "id": "q", "timeout_s": 10})
            code = main(["top", "--socket", fixture.path, "--once"])
            out = capsys.readouterr().out
            assert code == 0
            assert "repro top — READY" in out
            assert "submitted 1" in out
            assert "flight recorder" in out
        finally:
            fixture.close()
            server.shutdown()

    def test_count_renders_that_many_frames(self, tmp_path, capsys):
        server = make_server(workers=1)
        fixture = _SocketFixture(server, str(tmp_path / "serve.sock"))
        try:
            code = main(["top", "--socket", fixture.path, "--count", "2",
                         "--interval", "0.01"])
            assert code == 0
            out = capsys.readouterr().out
            assert out.count("repro top —") == 2
        finally:
            fixture.close()
            server.shutdown()

    def test_unreachable_socket_fails_cleanly(self, tmp_path, capsys):
        code = main(["top", "--socket", str(tmp_path / "gone.sock"),
                     "--once"])
        assert code == 1
        assert "cannot reach server" in capsys.readouterr().err


# -- session dispatch without a socket -----------------------------------------


def test_session_dispatch_iter_single_for_plain_ops():
    with make_server(workers=1) as server:
        session = Session(server)
        docs = list(session.dispatch_iter({"op": "health"}))
        assert len(docs) == 1
        assert docs[0]["op"] == "health"
        ticks = list(session.dispatch_iter(
            {"op": "stats-stream", "count": 2, "interval_s": 0}
        ))
        assert [t["seq"] for t in ticks] == [0, 1]


def test_flight_recorder_attrs_win_over_job_fields():
    """The queued event's own priority attr must not collide with the
    job-derived record fields."""
    fr = FlightRecorder(capacity=4)
    with make_server(workers=1) as server:
        server.submit("live-quick", priority="high").result(timeout=10)
        queued = [e for e in server._flight.tail()
                  if e["kind"] == "queued"]
        assert queued and queued[0]["priority"] == "high"
    assert fr.recorded == 0
