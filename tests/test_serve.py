"""Tests for the scenario-serving runtime (:mod:`repro.serve`).

Covers the protocol validators, the bounded priority queue (admission,
shedding, batching, withdrawal), the server (dedup, caching, priorities,
cancellation in every phase, timeouts, worker-death retries with
exactly-once commitment) and the JSONL transports (stream + socket).
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro.serve import (
    JobCancelled,
    JobFailed,
    JobQueue,
    ScenarioServer,
    ShedError,
)
from repro.serve.jsonl import (
    MAX_LINE_BYTES,
    bounded_lines,
    run_requests,
    serve_socket,
)
from repro.serve.protocol import ProtocolError, parse_request
from repro.serve.queue import (
    SHED_QUEUE_FULL,
    SHED_SHUTTING_DOWN,
    SHED_UNKNOWN_SCENARIO,
    Job,
)
from repro.sweep.scenario import FunctionScenario, register, unregister

# -- test scenarios ------------------------------------------------------------

_EXEC_LOG: list[tuple[str, int]] = []
_EXEC_LOCK = threading.Lock()
_GATE = threading.Event()


def _quick(ctx):
    with _EXEC_LOCK:
        _EXEC_LOG.append(("quick", ctx.params["x"]))
    return {"square": ctx.params["x"] ** 2, "seed": ctx.seed}


def _gated(ctx):
    _GATE.wait(timeout=10.0)
    return {"released": True}


def _slow(ctx):
    time.sleep(ctx.params.get("delay", 5.0))
    return {"slept": True}


def _boom(ctx):
    raise RuntimeError("scenario exploded")


_TEST_SCENARIOS = {
    "srv-quick": (_quick, {"x": 3}),
    "srv-gated": (_gated, {}),
    "srv-slow": (_slow, {}),
    "srv-boom": (_boom, {}),
}


@pytest.fixture(autouse=True)
def _register_serve_scenarios():
    for name, (fn, params) in _TEST_SCENARIOS.items():
        register(FunctionScenario(name, fn, dict(params)), replace=True)
    _EXEC_LOG.clear()
    _GATE.clear()
    yield
    for name in _TEST_SCENARIOS:
        unregister(name)


def make_server(**kwargs):
    kwargs.setdefault("scenario_modules", ())
    return ScenarioServer(**kwargs)


# -- protocol ------------------------------------------------------------------


class TestProtocol:
    def test_valid_submit(self):
        req = parse_request(
            '{"op": "submit", "scenario": "s", "priority": "high"}'
        )
        assert req["op"] == "submit"

    @pytest.mark.parametrize("line", [
        "",
        "not json",
        "[1, 2]",
        '{"op": "frobnicate"}',
        '{"op": "submit"}',
        '{"op": "submit", "scenario": ""}',
        '{"op": "submit", "scenario": "s", "params": [1]}',
        '{"op": "submit", "scenario": "s", "priority": "urgent"}',
        '{"op": "submit", "scenario": "s", "timeout_s": -1}',
        '{"op": "cancel"}',
        '{"op": "result"}',
    ])
    def test_malformed_rejected(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)


# -- queue ---------------------------------------------------------------------


def _job(seq, priority="normal", requires=()):
    return Job(name=f"j{seq}", params={}, priority=priority, seq=seq,
               requires=tuple(requires))


class TestJobQueue:
    def test_priority_drain_order_fifo_within_lane(self):
        q = JobQueue(capacity=8)
        for job in (_job(1, "low"), _job(2, "normal"), _job(3, "high"),
                    _job(4, "normal")):
            assert q.offer(job) is None
        assert [q.take().seq for _ in range(4)] == [3, 2, 4, 1]

    def test_sheds_beyond_capacity(self):
        q = JobQueue(capacity=2)
        assert q.offer(_job(1)) is None
        assert q.offer(_job(2)) is None
        # the bound is a hard promise: even a high-priority offer sheds
        assert q.offer(_job(3, "high")) == SHED_QUEUE_FULL
        assert len(q) == 2

    def test_closed_queue_sheds_and_drains(self):
        q = JobQueue(capacity=2)
        q.offer(_job(1))
        q.close()
        assert q.offer(_job(2)) == SHED_SHUTTING_DOWN
        assert q.take().seq == 1
        assert q.take() is None

    def test_take_batch_coalesces_compatible_only(self):
        q = JobQueue(capacity=8)
        for job in (_job(1), _job(2, requires=("trace:a",)), _job(3),
                    _job(4, "high")):
            q.offer(job)
        # the high-priority job drains first and has no lane-mates
        assert [j.seq for j in q.take_batch(max_batch=4)] == [4]
        # then the normal lane coalesces compatible jobs, preserving the
        # skipped incompatible job's place
        assert [j.seq for j in q.take_batch(max_batch=4)] == [1, 3]
        assert q.take().seq == 2

    def test_remove_pending(self):
        q = JobQueue(capacity=4)
        job = _job(1)
        q.offer(job)
        assert q.remove(job) is True
        assert q.remove(job) is False
        assert len(q) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            JobQueue(capacity=0)


# -- server --------------------------------------------------------------------


class TestScenarioServer:
    def test_submit_executes_and_caches(self):
        with make_server(workers=1) as server:
            h1 = server.submit("srv-quick", {"x": 4})
            assert h1.result(timeout=10) == {
                "square": 16, "seed": h1._job.seed,
            }
            h2 = server.submit("srv-quick", {"x": 4})
            assert h2.result(timeout=10) == h1.result()
            assert h2.record()["cached"] is True
            stats = server.stats()["counters"]
            assert stats["executions"] == 1
            assert stats["cache_hits"] == 1
        assert len(_EXEC_LOG) == 1

    def test_base_seed_is_part_of_the_cache_identity(self, tmp_path):
        """A server under another base seed on the same cache dir runs
        the scenario again instead of serving the first seed's result."""
        with make_server(workers=1, cache_dir=str(tmp_path)) as server:
            first = server.submit("srv-quick", {"x": 4})
            assert first.result(timeout=10)["seed"] == first._job.seed
        with make_server(workers=1, cache_dir=str(tmp_path),
                         base_seed=7) as server:
            second = server.submit("srv-quick", {"x": 4})
            assert second.result(timeout=10) == {
                "square": 16, "seed": second._job.seed,
            }
            assert second.record()["cached"] is False
            assert second._job.seed != first._job.seed
            assert server.drain(timeout=10)
            counters = server.stats()["counters"]
            assert counters["executions"] == 1
            assert "cache_hits" not in counters
        assert len(_EXEC_LOG) == 2

    def test_pending_requests_coalesce(self):
        server = make_server(workers=1, start=False)
        h1 = server.submit("srv-quick", {"x": 5})
        h2 = server.submit("srv-quick", {"x": 5})
        h3 = server.submit("srv-quick", {"x": 6})
        assert h1.job_id == h2.job_id
        assert h1.job_id != h3.job_id
        assert server.stats()["counters"]["dedup_hits"] == 1
        server.start()
        assert h1.result(timeout=10) == h2.result(timeout=10)
        assert h3.result(timeout=10)["square"] == 36
        server.shutdown()
        # one execution for the coalesced pair, one for the distinct job
        assert len(_EXEC_LOG) == 2

    def test_unknown_scenario_shed(self):
        with make_server() as server:
            handle = server.submit("no-such-scenario")
            assert handle.status == "shed"
            with pytest.raises(ShedError) as exc:
                handle.result(timeout=1)
            assert SHED_UNKNOWN_SCENARIO in str(exc.value)
            assert server.stats()["counters"][
                f"shed:{SHED_UNKNOWN_SCENARIO}"] == 1

    def test_queue_full_shed(self):
        server = make_server(workers=1, queue_capacity=2, start=False)
        handles = [server.submit("srv-quick", {"x": i}) for i in range(4)]
        statuses = [h.status for h in handles]
        assert statuses == ["queued", "queued", "shed", "shed"]
        assert server.stats()["counters"][f"shed:{SHED_QUEUE_FULL}"] == 2
        server.start()
        assert handles[0].result(timeout=10)["square"] == 0
        server.shutdown()

    def test_submit_after_shutdown_shed(self):
        server = make_server()
        server.shutdown()
        handle = server.submit("srv-quick", {"x": 1})
        assert handle.status == "shed"
        assert handle.record()["error"] == SHED_SHUTTING_DOWN

    def test_priority_governs_execution_order(self):
        server = make_server(workers=1, max_batch=1, start=False)
        server.submit("srv-quick", {"x": 1}, priority="low")
        server.submit("srv-quick", {"x": 2}, priority="normal")
        server.submit("srv-quick", {"x": 3}, priority="high")
        server.start()
        assert server.drain(timeout=10)
        server.shutdown()
        assert [x for _, x in _EXEC_LOG] == [3, 2, 1]

    def test_cancel_pending(self):
        server = make_server(workers=1, start=False)
        handle = server.submit("srv-quick", {"x": 9})
        assert handle.cancel() is True
        assert handle.status == "cancelled"
        assert len(server.queue) == 0
        with pytest.raises(JobCancelled):
            handle.result(timeout=1)
        # double-cancel is a no-op
        assert handle.cancel() is False
        server.start()
        server.shutdown()
        assert _EXEC_LOG == []

    def test_cancel_detaches_shared_subscriber(self):
        server = make_server(workers=1, start=False)
        h1 = server.submit("srv-quick", {"x": 7})
        h2 = server.submit("srv-quick", {"x": 7})
        assert h1.cancel() is True
        assert h1.status == "cancelled"
        server.start()
        # the surviving subscriber still gets the result
        assert h2.result(timeout=10)["square"] == 49
        with pytest.raises(JobCancelled):
            h1.result(timeout=1)
        server.shutdown()

    def test_cancel_running_is_cooperative(self):
        with make_server(workers=1, start=False) as server:
            running = threading.Event()
            server.add_listener(
                lambda job, kind, t, attrs:
                running.set() if kind == "running" else None
            )
            handle = server.submit("srv-gated")
            server.start()
            # event-driven: the "running" event fires after the status
            # flip, so no status polling loop is needed
            assert running.wait(timeout=10)
            assert handle._job.status == "running"
            assert handle.cancel() is True
            _GATE.set()
            # the detached handle reports done immediately; wait on the
            # job itself for the cooperative post-run commit
            assert handle._job.done.wait(timeout=10)
            assert handle._job.status == "cancelled"
            with pytest.raises(JobCancelled):
                handle.result(timeout=1)

    def test_job_timeout(self):
        with make_server(workers=1) as server:
            handle = server.submit(
                "srv-slow", {"delay": 5.0}, timeout_s=0.05
            )
            assert handle.wait(timeout=10)
            assert handle.record()["status"] == "timeout"
            with pytest.raises(JobFailed):
                handle.result(timeout=1)
            assert server.stats()["counters"]["timeout"] == 1

    def test_failing_scenario_isolated(self):
        with make_server(workers=1) as server:
            bad = server.submit("srv-boom")
            good = server.submit("srv-quick", {"x": 2})
            assert good.result(timeout=10)["square"] == 4
            assert bad.wait(timeout=10)
            assert bad.record()["status"] == "failed"
            assert "scenario exploded" in bad.record()["error"]

    def test_worker_death_retries_exactly_once_commit(self):
        deaths: dict[int, int] = {}

        def injector(job, attempt):
            # first attempt of every job dies before doing any work
            if deaths.get(job.seq, 0) == 0:
                deaths[job.seq] = 1
                return "before"
            return None

        with make_server(workers=1, death_injector=injector) as server:
            handles = [server.submit("srv-quick", {"x": i}) for i in range(3)]
            results = [h.result(timeout=10) for h in handles]
        assert [r["square"] for r in results] == [0, 1, 4]
        # every job executed exactly once despite the injected deaths
        assert sorted(x for _, x in _EXEC_LOG) == [0, 1, 2]
        for h in handles:
            record = h.record()
            assert record["retries"] == 1
            assert record["attempts"] == 2

    def test_worker_death_after_run_commits_once(self):
        """An 'after' death re-executes (at-least-once) but commits once."""
        state = {"n": 0}

        def injector(job, attempt):
            state["n"] += 1
            return "after" if state["n"] == 1 else None

        with make_server(workers=1, death_injector=injector) as server:
            handle = server.submit("srv-quick", {"x": 8})
            assert handle.result(timeout=10)["square"] == 64
            stats = server.stats()["counters"]
        assert len(_EXEC_LOG) == 2  # the work ran twice ...
        assert stats["executions"] == 1  # ... but committed exactly once
        assert stats["completed"] == 1

    def test_worker_death_exhausts_retries(self):
        def injector(job, attempt):
            return "before"

        with make_server(
            workers=1, death_injector=injector, max_retries=2
        ) as server:
            handle = server.submit("srv-quick", {"x": 1})
            assert handle.wait(timeout=10)
            record = handle.record()
        assert record["status"] == "failed"
        assert record["attempts"] == 3
        assert "retries exhausted" in record["error"]
        assert _EXEC_LOG == []

    def test_batched_dispatch_completes_everything(self):
        server = make_server(workers=1, max_batch=4, start=False)
        handles = [server.submit("srv-quick", {"x": i}) for i in range(6)]
        server.start()
        assert [h.result(timeout=10)["square"] for h in handles] == [
            i ** 2 for i in range(6)
        ]
        server.shutdown()

    def test_disk_cache_round_trip(self, tmp_path):
        with make_server(workers=1, cache_dir=str(tmp_path)) as server:
            server.submit("srv-quick", {"x": 3}).result(timeout=10)
        # a fresh server instance sees the on-disk result
        with make_server(workers=1, cache_dir=str(tmp_path)) as server:
            handle = server.submit("srv-quick", {"x": 3})
            assert handle.record()["cached"] is True
            assert handle.result(timeout=10)["square"] == 9
        assert len(_EXEC_LOG) == 1

    def test_stats_shape(self):
        with make_server() as server:
            stats = server.stats()
        for key in ("counters", "queue_depth", "queue_capacity",
                    "queue_by_priority", "inflight", "workers", "max_batch",
                    "running", "uptime_wall_s"):
            assert key in stats

    def test_events_stream_through_listener(self):
        seen: list[str] = []
        with make_server(workers=1) as server:
            server.add_listener(
                lambda job, kind, t, attrs: seen.append(kind)
            )
            server.submit("srv-quick", {"x": 2}).result(timeout=10)
            server.drain(timeout=10)
        assert "queued" in seen
        assert "running" in seen
        assert "done" in seen


class TestServerContextManager:
    def test_round_trip(self):
        with ScenarioServer(workers=1, scenario_modules=()) as server:
            handle = server.submit("srv-quick", {"x": 5}, priority="high")
            assert handle.result(timeout=10)["square"] == 25
            assert server.drain(timeout=10)
            assert server.stats()["counters"]["completed"] == 1
        assert server.running is False

    def test_submit_many_order(self):
        with ScenarioServer(workers=1, scenario_modules=()) as server:
            handles = server.submit_many([
                {"scenario": "srv-quick", "params": {"x": 1}},
                {"scenario": "srv-quick", "params": {"x": 2}},
            ])
            assert [h.result(timeout=10)["square"] for h in handles] == [1, 4]


# -- JSONL transports ----------------------------------------------------------


class TestJsonlStream:
    def test_one_shot_stream(self):
        lines = [
            "# comment lines and blanks are skipped",
            "",
            '{"op": "submit", "id": "a", "scenario": "srv-quick", '
            '"params": {"x": 2}}',
            '{"op": "submit", "id": "b", "scenario": "srv-quick", '
            '"params": {"x": 2}}',
            '{"op": "submit", "id": "c", "scenario": "missing"}',
            "this is not json",
            '{"op": "stats"}',
        ]
        out = io.StringIO()
        with make_server(workers=1) as server:
            summary = run_requests(server, lines, out)
        docs = [json.loads(line) for line in out.getvalue().splitlines()]
        assert summary["requests"] == 3
        assert summary["by_status"] == {"done": 2, "shed": 1}
        errors = [d for d in docs if d["op"] == "error"]
        assert len(errors) == 1 and "invalid JSON" in errors[0]["error"]
        results = {d["id"]: d for d in docs if d["op"] == "result"}
        assert results["a"]["result"]["square"] == 4
        # the duplicate submit rode the same job
        assert results["a"]["job"] == results["b"]["job"]
        assert results["c"]["status"] == "shed"
        assert docs[-1]["op"] == "stats"

    def test_oversized_line_then_submit(self):
        """An over-long line gets one error; the stream keeps reading."""
        data = (
            b'{"op": "submit", "id": "big", "scenario": "srv-quick", '
            b'"pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
            b'{"op": "submit", "id": "a", "scenario": "srv-quick", '
            b'"params": {"x": 5}}\n'
        )
        out = io.StringIO()
        with make_server(workers=1) as server:
            summary = run_requests(server, bounded_lines(io.BytesIO(data)), out)
        docs = [json.loads(line) for line in out.getvalue().splitlines()]
        errors = [d for d in docs if d["op"] == "error"]
        assert len(errors) == 1
        assert f"exceeds {MAX_LINE_BYTES} bytes" in errors[0]["error"]
        assert summary["requests"] == 1
        results = {d["id"]: d for d in docs if d["op"] == "result"}
        assert set(results) == {"a"}
        assert results["a"]["result"]["square"] == 25

    def test_bounded_lines_edges(self):
        """A line of exactly the bound passes; one byte more does not."""
        exact = b"y" * MAX_LINE_BYTES
        data = exact + b"\n" + exact + b"z\n" + b"tail"
        lines = list(bounded_lines(io.BytesIO(data)))
        assert lines == [exact.decode() + "\n", None, "tail"]

    def test_cancel_and_shutdown_ops(self):
        lines = [
            '{"op": "submit", "id": "a", "scenario": "srv-quick"}',
            '{"op": "cancel", "id": "zzz"}',
            '{"op": "drain"}',
            '{"op": "shutdown"}',
            '{"op": "submit", "id": "never", "scenario": "srv-quick"}',
        ]
        out = io.StringIO()
        with make_server(workers=1) as server:
            summary = run_requests(server, lines, out)
        docs = [json.loads(line) for line in out.getvalue().splitlines()]
        ops = [d["op"] for d in docs]
        # the stream stops at shutdown: the trailing submit never runs
        assert "shutdown-ack" in ops
        assert summary["requests"] == 1
        cancel_acks = [d for d in docs if d["op"] == "cancel-ack"]
        assert cancel_acks[0]["ok"] is False


class TestJsonlSocket:
    def test_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "serve.sock")
        with make_server(workers=1) as server:
            ready = threading.Event()
            t = threading.Thread(
                target=serve_socket, args=(server, path),
                kwargs={"ready": ready}, daemon=True,
            )
            t.start()
            # event-driven: serve_socket signals once it is listening
            assert ready.wait(timeout=5)
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            fh = client.makefile("rw", encoding="utf-8")
            # an over-long line is refused without dropping the connection
            fh.write("x" * (MAX_LINE_BYTES + 1) + "\n")
            fh.flush()
            error = json.loads(fh.readline())
            assert error["op"] == "error"
            assert "exceeds" in error["error"]
            fh.write('{"op": "submit", "id": "s1", "scenario": "srv-quick", '
                     '"params": {"x": 6}}\n')
            fh.flush()
            accepted = json.loads(fh.readline())
            assert accepted["op"] == "accepted"
            fh.write('{"op": "result", "id": "s1", "timeout_s": 10}\n')
            fh.flush()
            result = json.loads(fh.readline())
            assert result["result"]["square"] == 36
            fh.write('{"op": "shutdown"}\n')
            fh.flush()
            assert json.loads(fh.readline())["op"] == "shutdown-ack"
            client.close()
            t.join(timeout=10)
            assert not t.is_alive()

    def test_comment_and_blank_lines_skipped(self, tmp_path):
        """The socket skips ``#`` comments and blank lines like stream
        mode does, instead of answering them with ``invalid JSON``."""
        path = str(tmp_path / "serve.sock")
        with make_server(workers=1) as server:
            ready = threading.Event()
            t = threading.Thread(
                target=serve_socket, args=(server, path),
                kwargs={"ready": ready}, daemon=True,
            )
            t.start()
            assert ready.wait(timeout=5)
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(path)
            fh = client.makefile("rw", encoding="utf-8")
            fh.write('# hello\n\n  # indented\n{"op": "health"}\n')
            fh.flush()
            # the first answer is the health document, not an error
            assert json.loads(fh.readline())["op"] == "health"
            fh.write('{"op": "shutdown"}\n')
            fh.flush()
            assert json.loads(fh.readline())["op"] == "shutdown-ack"
            client.close()
            t.join(timeout=10)
            assert not t.is_alive()

    def test_socket_path_reused_across_invocations(self, tmp_path):
        """A stale socket file (prior run or crash) must not block a new
        listener — AF_UNIX ignores SO_REUSEADDR, so the file has to be
        unlinked before bind and removed again on shutdown."""
        import os

        path = str(tmp_path / "serve.sock")
        # a crash that never cleaned up leaves a stale file behind
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(path)
        stale.close()
        assert os.path.exists(path)

        def _round_trip():
            with make_server(workers=1) as server:
                ready = threading.Event()
                t = threading.Thread(
                    target=serve_socket, args=(server, path),
                    kwargs={"ready": ready}, daemon=True,
                )
                t.start()
                assert ready.wait(timeout=5)
                client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                client.connect(path)
                fh = client.makefile("rw", encoding="utf-8")
                fh.write('{"op": "shutdown"}\n')
                fh.flush()
                assert json.loads(fh.readline())["op"] == "shutdown-ack"
                client.close()
                t.join(timeout=10)
                assert not t.is_alive()

        _round_trip()  # binds over the stale file
        assert not os.path.exists(path)  # cleaned up on exit
        _round_trip()  # and a second invocation binds cleanly again


class TestReviewRegressions:
    def test_invalid_priority_raises_value_error(self):
        """The Python API validates priority like the protocol layer does
        — a typo'd class must not surface as a KeyError from deep inside
        the queue (nor count as a submission)."""
        with make_server(workers=1, start=False) as server:
            with pytest.raises(ValueError, match="unknown priority"):
                server.submit("srv-quick", priority="urgent")
            with pytest.raises(ValueError, match="unknown priority"):
                server.submit("srv-quick", priority="")
            assert server.stats()["counters"] == {}

    def test_committed_twin_is_not_attached(self):
        """A job that committed its terminal transition but whose
        ``_on_terminal`` has not popped ``_inflight`` yet must look
        *absent* to a racing submit — attaching would hand the new
        client a handle on a dead job."""
        server = make_server(workers=1, start=False, use_cache=False)
        try:
            first = server.submit("srv-quick")
            old = first._job
            # simulate the commit/pop window: terminal + committed, but
            # _on_terminal hasn't run yet so _inflight still holds it
            with old.lock:
                old.committed = True
                old.status = "cancelled"
            second = server.submit("srv-quick")
            assert second._job is not old
            assert server._inflight[old.key] is second._job
            # the old job's deferred _on_terminal must not evict the
            # newly admitted twin (identity-checked pop)
            server._on_terminal(old)
            assert server._inflight[old.key] is second._job
            # ... so a third submit still coalesces onto the live job
            third = server.submit("srv-quick")
            assert third._job is second._job
            assert server.stats()["counters"]["dedup_hits"] == 1
        finally:
            server.shutdown(wait=False)

    def test_dedup_attach_survives_concurrent_cancels(self):
        """attach (submit) and detach (cancel) mutate one subscriber
        count from different threads; both now serialize on job.lock, so
        N attaches + N-1 cancels must leave exactly one live subscriber
        and never cancel the job under a freshly coalesced client."""
        with make_server(workers=1, start=False) as server:
            first = server.submit("srv-gated")
            job = first._job
            handles = [server.submit("srv-gated") for _ in range(8)]
            assert all(h._job is job for h in handles)
            threads = [
                threading.Thread(target=h.cancel) for h in handles
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10.0)
            # every shared handle detached; the original client's
            # subscription keeps the job alive and uncancelled
            assert job.subscribers == 1
            assert not job.cancel_requested
            assert not job.terminal
            server.start()
            _GATE.set()
            assert first.wait(timeout=10.0)
            assert first.result()["released"] is True


class TestConcurrentScenarios:
    #: degraded and flapping first: they are dispatched together, and
    #: they are the pair whose counters collide when windows are shared
    CHAOS = tuple(
        f"chaos-matrix-{fault}"
        for fault in ("degraded", "flapping", "crash", "partition")
    )

    def test_concurrent_chaos_matrix_matches_serial(self):
        """The chaos-matrix scenarios read their counters from an
        ``obs.collect()`` window; two workers running them at once must
        not see each other's windows, so every served result equals the
        same scenario run serially in-process."""
        from repro.sweep.scenario import (
            execute_scenario, get_scenario, run_identity,
        )

        server = make_server(workers=2, max_batch=1, start=False,
                             scenario_modules=("repro.sweep.builtin",))
        with server:
            handles = [server.submit(name) for name in self.CHAOS]
            server.start()
            served = [h.result(timeout=60) for h in handles]
        for name, result in zip(self.CHAOS, served):
            scenario = get_scenario(name)
            params, seed, _ = run_identity(scenario)
            serial = execute_scenario(scenario, params, seed)
            assert json.dumps(result, sort_keys=True) == json.dumps(
                serial, sort_keys=True
            ), name
