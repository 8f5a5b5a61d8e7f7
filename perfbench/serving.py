"""The ``serve-hot`` and ``serve-mixed`` workloads: load over the JSONL socket.

The server is its own process, ``python -m repro serve --socket PATH
--workers 2`` (in a traced run, the same entry point behind
:mod:`serve_launcher`, which installs the layer wrappers first).  Load
comes from this process over two connections, in slices: between slices
the server is idle and a calibration slice runs here, so every slice is
rescaled by the host speed measured right before and after it.

- ``serve-hot``: closed loop.  Each connection sends ``submit`` and
  ``result`` together and waits for the result before its next request.
  Every key is already in the server's disk result cache (filled during
  set-up), so only per-request overhead is measured.  A slice is a fixed
  script of requests.
- ``serve-mixed``: open loop.  Each slice is a script of Poisson
  arrivals (a fixed count over a fixed window, about a quarter of the
  server's capacity) of small scenarios, mostly new keys, a quarter
  repeating an earlier key, over all three priority lanes; the result
  cache starts empty.  See :func:`mixed_script` for what the seed varies.  Completion is observed by
  ``result`` polls with a short timeout, one poll in flight at a time,
  so a connection is always free to send the next due ``submit``.
  Latency runs from when a request was due to when it was seen done.
"""

from __future__ import annotations

import json
import random
import selectors
import shutil
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calib import Calibrator
from common import (
    ROOT, SETUPS, TRACE_DIR, WORK, child_env, median, peak_rss_mb_of, percentile,
    prepare_trace,
)
from layers import queue_waits, span_metrics
from tracer import Tracer

#: scenarios with a ``seed`` parameter: a fresh seed is a fresh key
SEEDED = ("fig1", "fig4", "chaos-s0", "chaos-matrix-crash",
          "chaos-matrix-degraded", "chaos-matrix-flapping",
          "chaos-matrix-partition", "chaos-matrix-checkpoint")
#: scenarios without one: executed once, then served from the cache
FIXED = ("table3", "ablation-granularity", "ablation-sfc-curves")
PRIORITIES = ("high", "normal", "low")

#: serve-hot: requests per slice, and the slice's nominal seconds
HOT_SLICE = 2000
HOT_SLICE_S = 1.0
#: serve-mixed: seconds over which one slice's arrivals are spread — the
#: slice's work takes ~1.5 s on the reference host, so this is about a
#: quarter of its capacity (at half, queueing made the latency spread
#: across runs exceed 0.25) — and the seconds of ``--seconds`` per slice
MIXED_WINDOW_S = 6.0
MIXED_SLICE_S = 3.0
#: serve-mixed: repeats of earlier keys per slice (a quarter of requests)
REPEATS = 4
#: serve-mixed: seconds a ``result`` poll waits for its job
POLL_S = 0.005
#: serve-mixed: keys whose served result is re-run in-process and compared
CHECKED_SAMPLE = 8
#: tiny (smoke) mode sizes
TINY_HOT_SLICE = 50


@dataclass(frozen=True)
class Request:
    """One scenario request; ``(scenario, params)`` is its cache identity."""

    scenario: str
    seed: int | None
    priority: str = "normal"

    @property
    def params(self) -> dict:
        return {} if self.seed is None else {"seed": self.seed}

    @property
    def key(self) -> tuple[str, int | None]:
        return (self.scenario, self.seed)

    def submit_doc(self, rid: str) -> dict:
        return {"op": "submit", "id": rid, "scenario": self.scenario,
                "params": self.params, "priority": self.priority}


def canonical(document) -> str:
    """The wire encoding the server uses (sorted keys, compact)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def direct_result(req: Request) -> str:
    """``req``'s result run in-process, as the server would encode it."""
    from repro.partitioners import deterministic_partition_time
    from repro.sweep.builtin import ensure_registered
    from repro.sweep.scenario import (
        ScenarioContext, derive_seed, get_scenario, jsonify,
    )

    ensure_registered()
    scenario = get_scenario(req.scenario)
    merged = {**scenario.params, **req.params}
    ctx = ScenarioContext(params=merged, seed=derive_seed(req.scenario, merged, 0),
                          cache_dir=TRACE_DIR)
    with deterministic_partition_time():
        return canonical(jsonify(scenario.run(ctx)))


# -- the server process ------------------------------------------------------


class Connection:
    """A line-oriented JSONL client connection (blocking socket)."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self._buf = b""

    def send(self, *docs: dict | bytes) -> None:
        self.sock.sendall(b"".join(
            d if isinstance(d, bytes) else canonical(d).encode() + b"\n"
            for d in docs
        ))

    def read_lines(self) -> list[bytes]:
        """Lines available now (call when the socket is readable)."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk
        *lines, self._buf = self._buf.split(b"\n")
        return lines

    def call(self, doc: dict) -> dict:
        """Send one request and block for its one-line response."""
        self.send(doc)
        while True:
            lines = self.read_lines()
            if lines:
                if len(lines) > 1 or self._buf:
                    raise RuntimeError("unexpected extra response lines")
                return json.loads(lines[0])

    def close(self) -> None:
        self.sock.close()


class ServerProcess:
    """One ``repro serve`` process on a socket, with its own cache dir."""

    def __init__(self, run_dir: Path, name: str, traced: bool) -> None:
        self.cache_dir = run_dir / f"{name}-cache"
        self.cache_dir.mkdir(parents=True)
        # the shared small trace is warm on disk; the result cache is empty
        shutil.copy(TRACE_DIR / "rm3d_small_trace.json.gz", self.cache_dir)
        # relative to the checkout, which keeps AF_UNIX paths short
        self.path = str((run_dir / f"{name}.sock").relative_to(ROOT))
        self.dump = run_dir / f"{name}-trace.json"
        self.traced = traced
        serve = ["serve", "--socket", self.path, "--workers", "2", "--seed", "0",
                 "--cache-dir", str(self.cache_dir)]
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
                    str(self.dump), *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self.log = open(run_dir / f"{name}.log", "w")
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=self.log, stderr=subprocess.STDOUT,
        )

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until the socket accepts connections."""
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                Connection(self.path).close()
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"server on {self.path} did not start")
                time.sleep(0.002)

    def reset_trace(self) -> None:
        """Traced server only: zero its spans (set-up work is not measured)
        and wait for the launcher's acknowledgement."""
        if not self.traced:
            return
        ack = Path(f"{self.dump}.reset")
        self.proc.stdin.write(b"reset\n")
        self.proc.stdin.flush()
        deadline = time.monotonic() + 30.0
        while not ack.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server did not reset its spans")
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        """Ask the server to shut down and wait for it; kill on failure."""
        try:
            if self.proc.poll() is None:
                conn = Connection(self.path)
                try:
                    conn.call({"op": "shutdown"})
                finally:
                    conn.close()
                self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            if self.proc.stdin is not None:
                self.proc.stdin.close()
            self.log.close()


def fill(server: ServerProcess, requests: list[Request]) -> list[dict]:
    """Submit ``requests`` and wait for every result (one connection)."""
    conn = Connection(server.path)
    try:
        for i, req in enumerate(requests):
            conn.call(req.submit_doc(f"fill-{i}"))
        return [conn.call({"op": "result", "id": f"fill-{i}"})
                for i in range(len(requests))]
    finally:
        conn.close()


# -- slices -------------------------------------------------------------------


@dataclass
class SliceResult:
    """One slice of load: when it ran, per-request latencies, failures."""

    t0: float
    t1: float
    attempted: int = 0
    latencies_s: list[float] = field(default_factory=list)
    #: serve-mixed: the request id of each latency sample
    rids: list[str] = field(default_factory=list)
    failed: int = 0
    late_s: list[float] = field(default_factory=list)


def hot_slice(conns: list[Connection], scripts: list[list[tuple[bytes, bytes]]],
              count: int) -> SliceResult:
    """Closed loop: ``count`` requests over the connections.

    ``scripts[i]`` is connection ``i``'s cycle of (request bytes, the
    result fragment a correct response contains).
    """
    sel = selectors.DefaultSelector()
    out = SliceResult(time.perf_counter(), 0.0)
    issued = 0
    state = []
    for i, conn in enumerate(conns):
        sel.register(conn.sock, selectors.EVENT_READ, i)
        state.append([None, 0.0])  # expected fragment, send time

    def issue(i: int) -> None:
        nonlocal issued
        request, fragment = scripts[i][issued % len(scripts[i])]
        state[i] = [fragment, time.perf_counter()]
        conns[i].send(request)
        issued += 1

    for i in range(len(conns)):
        if issued < count:
            issue(i)
    done = 0
    while done < issued:
        for key, _ in sel.select():
            i = key.data
            for line in conns[i].read_lines():
                if b'"op":"accepted"' in line:
                    continue
                now = time.perf_counter()
                fragment, sent = state[i]
                if b'"status":"done"' in line and fragment in line:
                    out.latencies_s.append(now - sent)
                else:
                    out.failed += 1
                done += 1
                if issued < count:
                    issue(i)
    sel.close()
    out.t1 = time.perf_counter()
    out.attempted = issued
    return out


class MixedLoad:
    """Open-loop slices over two connections, completions seen by polls."""

    def __init__(self, conns: list[Connection]) -> None:
        self.conns = conns
        self.seq = 0
        #: request id -> (connection index, request)
        self.sent: dict[str, tuple[int, Request]] = {}
        #: request id -> served result (canonical JSON), once seen
        self.results: dict[str, str] = {}
        #: ids answered as cache hits at submit time (result fetched later)
        self.hits: list[str] = []

    def run_slice(self, script: list[tuple[float, Request]],
                  stretch: float) -> SliceResult:
        """Run one slice; arrival offsets (nominal seconds) are multiplied
        by ``stretch``, the host's current slowness, so that the offered
        load relative to the host's speed does not drift with it."""
        sel = selectors.DefaultSelector()
        for i, conn in enumerate(self.conns):
            sel.register(conn.sock, selectors.EVENT_READ, i)
        # per connection, the (kind, id) of each request still unanswered
        inbox: list[list[tuple[str, str]]] = [[] for _ in self.conns]
        # id -> [connection, not yet seen running, lane rank, sequence]
        pending: dict[str, list[int]] = {}
        due_of: dict[str, float] = {}
        polling: str | None = None
        cursor = 0
        nxt = 0
        out = SliceResult(time.perf_counter(), 0.0, len(script))
        base = out.t0
        script = [(offset * stretch, req) for offset, req in script]

        def complete(rid: str, record: dict, now: float) -> None:
            if record.get("status") != "done":
                print(f"serve-mixed: {rid} {record.get('status')}: "
                      f"{record.get('error')}", file=sys.stderr)
                out.failed += 1
            else:
                out.latencies_s.append(now - due_of[rid])
                out.rids.append(rid)
                if "result" in record:
                    self.results[rid] = canonical(record["result"])

        while nxt < len(script) or pending or any(inbox):
            now = time.perf_counter()
            while nxt < len(script) and base + script[nxt][0] <= now:
                offset, req = script[nxt]
                nxt += 1
                self.seq += 1
                rid = f"m{self.seq}"
                # any connection without a poll in flight is free
                i = next(k for k in range(len(self.conns))
                         if polling is None or self.sent[polling][0] != k)
                self.conns[i].send(req.submit_doc(rid))
                inbox[i].append(("submit", rid))
                self.sent[rid] = (i, req)
                due_of[rid] = base + offset
                out.late_s.append(now - due_of[rid])
            if polling is None and pending:
                # running jobs are the likeliest to finish next
                order = sorted(pending, key=lambda r: pending[r][1:])
                polling = order[cursor % len(order)]
                i = pending[polling][0]
                self.conns[i].send({"op": "result", "id": polling,
                                    "timeout_s": POLL_S})
                inbox[i].append(("poll", polling))
            timeout = None
            if nxt < len(script):
                timeout = max(base + script[nxt][0] - time.perf_counter(), 0.0)
            for key, _ in sel.select(timeout):
                i = key.data
                for line in self.conns[i].read_lines():
                    now = time.perf_counter()
                    kind, rid = inbox[i].pop(0)
                    doc = json.loads(line)
                    if kind == "submit":
                        status = doc.get("status")
                        if status == "done":
                            self.hits.append(rid)
                            complete(rid, doc, now)
                        elif status in ("queued", "running"):
                            req = self.sent[rid][1]
                            pending[rid] = [i, status != "running",
                                            PRIORITIES.index(req.priority),
                                            int(rid[1:])]
                        else:
                            complete(rid, doc, now)
                        continue
                    polling = None
                    if doc.get("status") in ("queued", "running"):
                        pending[rid][1] = doc["status"] != "running"
                        cursor += 1
                        continue
                    cursor = 0
                    del pending[rid]
                    complete(rid, doc, now)
        sel.close()
        out.t1 = time.perf_counter()
        return out

    def fetch_hits(self) -> None:
        """Fetch the results of requests answered as cache hits."""
        for rid in self.hits:
            doc = self.conns[self.sent[rid][0]].call({"op": "result", "id": rid})
            self.results[rid] = canonical(doc["result"])
        self.hits = []


def mixed_script(rng: random.Random, keys: list[Request], slice_no: int,
                 window_s: float) -> list[tuple[float, Request]]:
    """Open-loop slice ``slice_no``: Poisson arrivals over ``window_s``.

    Every slice carries the same work: one request for each scenario in
    :data:`SEEDED` (a fresh seed, so a new key), one for a scenario in
    :data:`FIXED` (in turn; the same key every time), and
    :data:`REPEATS` repeats of earlier keys — one of this slice's (a
    dedup attach while it runs), the others of earlier slices' (``keys``
    accumulates every key used) — over the priority lanes 1:3:1.

    The slice's shape — arrival times (uniform order statistics for the
    fixed count), which scenario arrives when, in which lane, and which
    of its requests the dedup repeat attaches to — is a fixed draw per
    slice number; ``rng`` (the run's seed) chooses the fresh seeds and
    which earlier keys the cache-hit repeats ask for.  Seeds thus vary
    what is computed, not how the arrivals clump.
    """
    shape = random.Random(f"serve-mixed:{slice_no}")
    slots: list[str | None] = [*SEEDED, FIXED[slice_no % len(FIXED)]]
    slots += [None] * REPEATS
    shape.shuffle(slots)
    # the same-slice repeat follows the slice's first request
    if slots[0] is None:
        first = next(i for i, s in enumerate(slots) if s is not None)
        slots[0], slots[first] = slots[first], slots[0]
    edge = round(len(slots) / 5)
    lanes = ["high"] * edge + ["low"] * edge + ["normal"] * (len(slots) - 2 * edge)
    shape.shuffle(lanes)
    offsets = sorted(shape.uniform(0.0, window_s) for _ in slots)
    earlier = list(keys)
    script: list[tuple[float, Request]] = []
    fresh: list[Request] = []
    for offset, scenario, lane in zip(offsets, slots, lanes):
        if scenario is not None:
            seed = rng.randrange(1, 10**6) if scenario in SEEDED else None
            req = Request(scenario, seed)
            fresh.append(req)
        elif earlier and len(fresh) < len(script):
            req = rng.choice(earlier)
        else:
            req = fresh[shape.randrange(len(fresh))]
        script.append((offset, Request(req.scenario, req.seed, lane)))
    keys.extend(fresh)
    return script


# -- the workloads ------------------------------------------------------------


class ServeWorkload:
    """Drives one serving workload: spawns servers, times their set-up,
    and runs measured phases of load against them."""

    def __init__(self, opts, run_dir: Path, cal: Calibrator) -> None:
        self.opts = opts
        self.run_dir = run_dir
        self.cal = cal
        self.hot = opts.workload == "serve-hot"
        rng = random.Random(f"{opts.workload}:{opts.seed}")
        if self.hot:
            self.keys = [Request(s, rng.randrange(1, 10**6)) for s in SEEDED]
        self.servers = 0

    def start(self, traced: bool) -> tuple[ServerProcess, float, float]:
        """Spawn a server, wait until it is ready (and, for serve-hot, its
        cache holds every key); returns it with raw and nominal set-up s."""
        self.servers += 1
        self.cal.sample()
        t0 = time.perf_counter()
        server = ServerProcess(self.run_dir, f"server{self.servers}", traced)
        try:
            server.wait_ready()
            warm = self.keys if self.hot else [Request("fig3", None)]
            docs = fill(server, warm)
        except BaseException:
            server.stop()
            raise
        t1 = time.perf_counter()
        self.cal.sample()
        if any(d.get("status") != "done" for d in docs):
            server.stop()
            raise RuntimeError(f"set-up requests failed: {docs}")
        return server, t1 - t0, (t1 - t0) * self.cal.factor(t0, t1)

    def measure(self, server: ServerProcess, seconds: float,
                inject_wrong: bool) -> dict:
        """Run ``seconds`` worth of slices (at their nominal length);
        returns the phase.

        The load script depends only on the seed, so a traced phase
        replays exactly the untraced phase's requests.
        """
        rng = random.Random(f"{self.opts.workload}:{self.opts.seed}:load")
        conns = [Connection(server.path) for _ in range(2)]
        slices: list[SliceResult] = []
        try:
            if self.hot:
                run_slice = self._hot(conns, rng, inject_wrong)
            else:
                load = MixedLoad(conns)
                keys: list[Request] = []

                def run_slice() -> SliceResult:
                    script = mixed_script(rng, keys, len(slices), MIXED_WINDOW_S)
                    now = time.perf_counter()
                    return load.run_slice(script, 1.0 / self.cal.factor(now, now))

            server.reset_trace()
            before = conns[0].call({"op": "stats"})["stats"]["counters"]
            slice_s = HOT_SLICE_S if self.hot else MIXED_SLICE_S
            self.cal.sample()
            for _ in range(max(1, round(seconds / slice_s))):
                slices.append(run_slice())
                self.cal.sample()
            after = conns[0].call({"op": "stats"})["stats"]["counters"]
            if not self.hot:
                load.fetch_hits()
            rss = server.peak_rss_mb()
        finally:
            for conn in conns:
                conn.close()
        failed = sum(s.failed for s in slices)
        if not self.hot:
            # a wrong answer is a failed request, not a latency sample
            wrong = self._check_mixed(load, rng, inject_wrong)
            failed += len(wrong)
            for s in slices:
                keep = [k for k, rid in enumerate(s.rids) if rid not in wrong]
                s.latencies_s = [s.latencies_s[k] for k in keep]
                s.rids = [s.rids[k] for k in keep]
        stats = {k: v - before.get(k, 0) for k, v in after.items()}
        return {"slices": slices, "failed": failed, "rss": rss, "stats": stats,
                "ops": sum(s.attempted for s in slices)}

    def _hot(self, conns: list[Connection], rng: random.Random,
             inject_wrong: bool):
        expected = {req.key: direct_result(req) for req in self.keys}
        if inject_wrong:
            first = self.keys[0].key
            expected[first] = expected[first].replace("1", "2", 1)
        scripts = []
        for c in range(len(conns)):
            # every key, four times each, in a seeded order
            order = self.keys * 4
            rng.shuffle(order)
            script = []
            for n, req in enumerate(order):
                rid = f"h{c}-{n}"
                request = (canonical(req.submit_doc(rid)) + "\n"
                           + canonical({"op": "result", "id": rid}) + "\n").encode()
                fragment = f'"result":{expected[req.key]},'.encode()
                script.append((request, fragment))
            scripts.append(script)
        count = TINY_HOT_SLICE if self.opts.tiny else HOT_SLICE
        return lambda: hot_slice(conns, scripts, count)

    def _check_mixed(self, load: MixedLoad, rng: random.Random,
                     inject_wrong: bool) -> set[str]:
        """Ids of wrong answers: every response for a key must agree, and
        a seeded sample of keys must equal an in-process run."""
        by_key: dict[tuple, list[str]] = {}
        for rid in load.results:
            by_key.setdefault(load.sent[rid][1].key, []).append(rid)
        sample = rng.sample(sorted(by_key, key=str),
                            min(CHECKED_SAMPLE, len(by_key)))
        wrong: set[str] = set()
        for key, rids in by_key.items():
            if key in sample:
                truth = direct_result(load.sent[rids[0]][1])
                if inject_wrong and key == sample[0]:
                    truth = truth.replace("1", "2", 1)
                bad = [r for r in rids if load.results[r] != truth]
            elif len({load.results[r] for r in rids}) > 1:
                bad = rids
            else:
                bad = []
            if bad:
                print(f"serve-mixed: wrong result for {key}", file=sys.stderr)
            wrong.update(bad)
        return wrong


def _phase_metrics(phase: dict, cal: Calibrator) -> tuple[dict, dict]:
    """(nominal, raw) time metrics of one measured phase.

    Percentiles and the completion rate are taken per slice, and the
    lower quartile over slices (for the rate, the upper) is reported.
    Interference on the shared host only ever adds time, and in the open
    loop one badly clumped slice dominates a pooled tail; a slower
    program slows every slice.
    """
    out = []
    for nominal in (True, False):
        per_slice, spans = [], []
        for s in phase["slices"]:
            f = cal.factor(s.t0, s.t1) if nominal else 1.0
            spans.append((s.t1 - s.t0) * f)
            ms = [1e3 * x * f for x in s.latencies_s]
            if ms:
                per_slice.append({f"p{n}": percentile(ms, n) for n in (50, 90, 95, 99)}
                                 | {"rate": len(ms) / spans[-1]})
        q = {k: percentile([p[k] for p in per_slice], 75 if k == "rate" else 25)
             for k in per_slice[0]}
        out.append({
            "replay_s": median(spans),
            "regrid_p50_ms": q["p50"],
            "regrid_p95_ms": q["p95"],
            "ops_per_s": q["rate"],
            "latency_p50_ms": q["p50"],
            "latency_p90_ms": q["p90"],
            "latency_p99_ms": q["p99"],
        })
    return out[0], out[1]


def run(opts) -> dict:
    """Run the workload; returns the outcome document for ``run.py``."""
    prepare_trace("small")
    run_dir = Path(WORK) / f"run-{opts.workload}-{opts.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    cal = Calibrator()
    workload = ServeWorkload(opts, run_dir, cal)
    servers: list[ServerProcess] = []
    try:
        setups = []
        for _ in range(1 if opts.trace else SETUPS):
            if servers:
                servers.pop().stop()
            server, raw_s, nominal_s = workload.start(traced=False)
            servers.append(server)
            setups.append((raw_s, nominal_s))
        seconds = opts.seconds / 2 if opts.trace else opts.seconds
        phase = workload.measure(servers[0], seconds, opts.inject_wrong)
        servers.pop().stop()
        nominal, raw = _phase_metrics(phase, cal)
        nominal["setup_s"] = median([n for _, n in setups])
        raw["setup_s"] = median([r for r, _ in setups])
        nominal["peak_rss_mb"] = phase["rss"]
        doc = {"attempted": phase["ops"], "failed": phase["failed"],
               "metrics": nominal, "raw": raw, "speed": cal.speed(),
               "kernel_ms": cal.kernel_ms()}
        if opts.trace:
            server, _, _ = workload.start(traced=True)
            servers.append(server)
            traced = workload.measure(server, seconds, False)
            servers.pop().stop()
            doc["attempted"] += traced["ops"]
            doc["failed"] += traced["failed"]
            doc["layers"] = _serve_layers(phase, traced, cal, server.dump)
        return doc
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


def _serve_layers(untraced: dict, traced: dict, cal: Calibrator,
                  dump: Path) -> dict:
    """Per-layer metrics of the traced phase (server-side wrappers)."""
    doc = json.loads(dump.read_text())
    tracer = Tracer.from_snapshot(doc["tracer"])
    slices = traced["slices"]
    wall = sum(s.t1 - s.t0 for s in slices)
    factor = sum((s.t1 - s.t0) * cal.factor(s.t0, s.t1) for s in slices) / wall
    out = span_metrics(tracer, traced["ops"], factor)
    queue_waits(doc["queue_waits_s"], out)
    counters = traced["stats"]
    submitted = max(counters.get("submitted", 0), 1)
    out["serve.cache_hit_share"] = counters.get("cache_hits", 0) / submitted
    out["serve.dedup_share"] = counters.get("dedup_hits", 0) / submitted
    out["serve.exec_share"] = counters.get("executions", 0) / submitted
    late = [1e3 * x for s in slices for x in s.late_s]
    out["loadgen.late_ms"] = percentile(late, 95) if late else 0.0
    out["trace.overhead"] = (_phase_metrics(traced, cal)[0]["latency_p50_ms"]
                             / _phase_metrics(untraced, cal)[0]["latency_p50_ms"])
    return out
