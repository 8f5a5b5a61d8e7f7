"""Command-line interface: ``python -m repro <verb> [...]``.

One argparse subcommand parser; every verb shares the same ``--json``
(document output), ``--seed`` (base seed) and ``--cache-dir`` (cache
root) options via a single parent parser, so they parse and document
identically everywhere:

``run`` — paper-fidelity experiments (reference trace, 64 procs)::

    python -m repro run table2          # instant
    python -m repro run table1 table3   # several at once
    python -m repro run all             # everything (several minutes)

``sweep`` — the parallel, cache-aware scenario sweep
(:mod:`repro.sweep`) over the registered set of experiments, ablations
and chaos configurations::

    python -m repro sweep                        # everything, serial
    python -m repro sweep --filter 'table*' --jobs 4
    python -m repro sweep --no-cache --json BENCH_sweep.json
    python -m repro sweep --list                 # show the registry

``report`` — the observed quickstart run (:mod:`repro.obs`)::

    python -m repro report                  # text run report
    python -m repro report --json out.json  # JSON document to a file

``chaos`` — seeded Poisson failure sweeps through the fault-tolerant
simulator (:mod:`repro.resilience.chaos`), exiting non-zero when a
recovery invariant is violated::

    python -m repro chaos
    python -m repro chaos --json out.json   # BENCH_chaos.json document
    python -m repro chaos --matrix          # gray-failure fault matrix
    python -m repro chaos --matrix --intensity low  # CI smoke subset

``trace`` — the traced quickstart run as Chrome trace-event JSON, loadable
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``::

    python -m repro trace                        # trace JSON to stdout
    python -m repro trace --json trace.json      # ... or to a file
    python -m repro trace --timeline tl.jsonl    # also dump the timeline

``serve`` — the long-running scenario-serving runtime
(:mod:`repro.serve`): bounded priority admission, request coalescing,
batched dispatch, explicit load shedding — speaking JSONL requests on
stdin, a file, or a local socket::

    echo '{"op": "submit", "scenario": "table2"}' | python -m repro serve
    python -m repro serve --requests jobs.jsonl --json summary.json
    python -m repro serve --socket /tmp/repro.sock --workers 4
    python -m repro serve --socket /tmp/repro.sock \\
        --snapshot telemetry.jsonl --flight-dump flight.jsonl

``top`` — a refreshing terminal dashboard over a running server's
socket (lane depths, throughput, dedup/cache reuse, latency quantiles,
SLO burn rates, the flight-recorder tail), driven by the server's
``stats-stream`` verb::

    python -m repro top --socket /tmp/repro.sock
    python -m repro top --socket /tmp/repro.sock --once   # one frame

``benchdiff`` — the bench regression gate: compare a current
``BENCH_*.json`` against a committed baseline and exit non-zero on
regression (:mod:`repro.obs.benchdiff`)::

    python -m repro benchdiff BENCH_obs.json /tmp/BENCH_obs.json
    python -m repro benchdiff base.json cur.json --rel-tol 0.05 --json -

``execsim-bench`` — the regrid reuse cache replayed against full
rebuilds (:mod:`repro.execsim.bench`), exiting non-zero when the final
units diverge::

    python -m repro execsim-bench
    python -m repro execsim-bench --json reuse.json

The heavyweight experiments (table3/4/5, fig3/4) consume the reference
RM3D trace, generated once (~30 s) and cached under ``.cache/``; the
sweep uses the reduced CI-sized trace and caches results
content-addressed under ``.cache/sweep/``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import EXPERIMENTS

#: the subcommand verbs
VERBS = ("run", "sweep", "report", "chaos", "trace", "serve", "top",
         "simtest", "benchdiff", "execsim-bench")


def _emit(document, json_arg) -> None:
    """Write ``document`` as JSON to stdout (``-``) or a path."""
    from repro.obs.export import export_json

    if json_arg == "-":
        export_json(document, sys.stdout)
    else:
        export_json(document, json_arg)
        print(f"wrote {json_arg}", file=sys.stderr)


#: canonical help strings for the shared options — one source of truth so
#: every verb documents (and parses) them identically
SHARED_OPTION_HELP = {
    "--json": "emit the result as JSON to PATH ('-' or no value: stdout)",
    "--seed": "base seed for deterministic scenario seed derivation "
    "(default 0)",
    "--cache-dir": "cache root for shared traces and cached results "
    "(default: .cache/)",
}


def _common_parent() -> argparse.ArgumentParser:
    """The ``--json`` / ``--seed`` / ``--cache-dir`` options every verb
    shares — one parent parser, so help text, defaults and parsing are
    identical across ``run``/``sweep``/``chaos``/``report`` and friends.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=SHARED_OPTION_HELP["--json"],
    )
    parent.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help=SHARED_OPTION_HELP["--seed"],
    )
    parent.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help=SHARED_OPTION_HELP["--cache-dir"],
    )
    return parent


def run_main(args: argparse.Namespace) -> int:
    """The ``run`` verb: paper-fidelity experiments -> tables/figures."""
    from repro.sweep.builtin import paper_scenario
    from repro.sweep.scenario import execute_scenario, run_identity

    names = (
        sorted(EXPERIMENTS) if "all" in args.experiments else args.experiments
    )
    trace_needed = any(
        "trace" in paper_scenario(n).params for n in names
    )
    if trace_needed:
        print("loading reference RM3D trace (generated on first use) ...",
              file=sys.stderr)

    from pathlib import Path

    cache_dir = Path(args.cache_dir) if args.cache_dir else None
    documents = {}
    for name in names:
        scenario = paper_scenario(name)
        params, seed, _ = run_identity(scenario, base_seed=args.seed)
        t0 = time.perf_counter()
        result = execute_scenario(scenario, params, seed, cache_dir)
        elapsed = time.perf_counter() - t0
        documents[name] = result
        if args.json is None:
            print(scenario.render(result))
            print(f"[{name} took {elapsed:.1f}s]\n", file=sys.stderr)
    if args.json is not None:
        _emit({"experiments": documents}, args.json)
    return 0


def sweep_main(args: argparse.Namespace) -> int:
    """The ``sweep`` verb: parallel cache-aware scenario execution."""
    from repro.sweep import run_sweep

    if args.list:
        from repro.sweep.scenario import all_scenarios, import_scenario_modules

        import_scenario_modules(("repro.sweep.builtin",))
        for scenario in all_scenarios():
            tags = ",".join(sorted(scenario.tags)) or "-"
            print(f"{scenario.name:<24} [{tags:<16}] {scenario.description}")
        return 0

    result = run_sweep(
        args.filter,
        tags=tuple(args.tag),
        jobs=args.jobs,
        use_cache=not args.no_cache,
        base_seed=args.seed,
        cache_dir=args.cache_dir,
    )
    if not result.tasks:
        print(f"no registered scenario matches {args.filter!r}",
              file=sys.stderr)
        return 2
    if args.json is None:
        print(result.render())
    else:
        _emit(result.to_dict(), args.json)
    return 0 if result.ok else 1


def report_main(args: argparse.Namespace) -> int:
    """The ``report`` verb: observed quickstart run -> text or JSON."""
    from repro.obs.report import collect_run_report

    print("running the observed quickstart scenario ...", file=sys.stderr)
    report = collect_run_report(
        num_coarse_steps=args.steps,
        online_steps=args.online_steps,
        include_spans=args.spans,
    )
    if args.json is None:
        print(report.render())
    else:
        _emit(report.to_dict(), args.json)
    return 0


def chaos_main(args: argparse.Namespace) -> int:
    """The ``chaos`` verb: Poisson failure sweep -> text or JSON.

    Exits non-zero when any recovery invariant is violated, so the sweep
    doubles as a CI gate.  With ``--matrix`` it runs the gray-failure
    fault matrix (fault type × intensity) instead of the Poisson sweep.
    """
    from repro.resilience.chaos import ChaosConfig, render_chaos, run_chaos

    if args.matrix:
        from repro.resilience.chaos import (
            INTENSITIES,
            MatrixConfig,
            render_chaos_matrix,
            run_chaos_matrix,
        )

        intensities = (
            tuple(args.intensity) if args.intensity else INTENSITIES
        )
        config = MatrixConfig(
            num_procs=args.procs if args.procs is not None else 8,
            num_coarse_steps=args.steps if args.steps is not None else 48,
            intensities=intensities,
            seed=args.seed,
        )
        print("running the gray-failure chaos matrix ...", file=sys.stderr)
        result = run_chaos_matrix(config)
        if args.json is None:
            print(render_chaos_matrix(result))
        else:
            _emit(result, args.json)
        return 0 if result["aggregate"]["all_invariants_hold"] else 1

    seeds = args.seeds if args.seeds else [args.seed + k for k in range(3)]
    config = ChaosConfig(
        num_procs=args.procs if args.procs is not None else 16,
        num_coarse_steps=args.steps if args.steps is not None else 96,
        mtbf=args.mtbf,
        mttr=args.mttr,
        seeds=tuple(seeds),
        loss_rate=args.loss_rate,
    )
    print("running the chaos sweep ...", file=sys.stderr)
    result = run_chaos(config)
    if args.json is None:
        print(render_chaos(result))
    else:
        _emit(result, args.json)
    return 0 if result["aggregate"]["all_invariants_hold"] else 1


def trace_main(args: argparse.Namespace) -> int:
    """The ``trace`` verb: traced quickstart -> Chrome trace-event JSON."""
    from repro.obs.chrome import collect_trace

    print("running the traced quickstart scenario ...", file=sys.stderr)
    doc = collect_trace(
        num_coarse_steps=args.steps,
        online_steps=args.online_steps,
        timeline_jsonl=args.timeline,
    )
    _emit(doc, args.json if args.json is not None else "-")
    if args.timeline is not None:
        print(f"wrote {args.timeline}", file=sys.stderr)
    return 0


def benchdiff_main(args: argparse.Namespace) -> int:
    """The ``benchdiff`` verb: bench regression gate over two documents."""
    from repro.obs.benchdiff import diff_files

    diff = diff_files(
        args.baseline,
        args.current,
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
    )
    if args.json is None:
        print(diff.render())
    else:
        _emit(diff.to_dict(), args.json)
    return 0 if diff.ok else 1


def execsim_bench_main(args: argparse.Namespace) -> int:
    """The ``execsim-bench`` verb: regrid reuse vs full rebuilds.

    Exits non-zero when the reuse cache's final units diverge from a
    full rebuild, so the bench doubles as a CI equivalence gate.
    """
    from repro.execsim.bench import render_reuse_bench, run_reuse_bench

    print("running the execsim reuse benchmark ...", file=sys.stderr)
    reuse = run_reuse_bench()
    if args.json is None:
        print(render_reuse_bench(reuse))
    else:
        _emit({"reuse": reuse}, args.json)
    return 0 if all(r["final_units_match"] for r in reuse.values()) else 1


def serve_main(args: argparse.Namespace) -> int:
    """The ``serve`` verb: the long-running scenario-serving runtime.

    Speaks the JSONL protocol (:mod:`repro.serve.protocol`) over stdin,
    a request file, or a local UNIX-domain socket.  Stream mode exits
    non-zero when any submitted job failed or timed out (shed requests
    are an explicit, successful refusal and do not fail the run).
    """
    from repro.serve import ScenarioServer
    from repro.serve.jsonl import bounded_lines, run_requests, serve_socket

    server = ScenarioServer(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_batch=args.max_batch,
        base_seed=args.seed,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        snapshot_path=args.snapshot,
        snapshot_interval_s=args.snapshot_interval,
        flight_dump_path=args.flight_dump,
    )
    try:
        if args.socket is not None:
            print(f"serving JSONL on {args.socket} "
                  "(send {\"op\": \"shutdown\"} to stop) ...",
                  file=sys.stderr)
            serve_socket(server, args.socket)
            summary = {"requests": 0, "by_status": {},
                       "stats": server.stats()}
        else:
            if args.requests is not None:
                with open(args.requests, "rb") as fh:
                    summary = run_requests(server, bounded_lines(fh), sys.stdout)
            else:
                summary = run_requests(
                    server, bounded_lines(sys.stdin.buffer), sys.stdout
                )
    finally:
        server.shutdown()
    if args.json is not None:
        _emit(summary, args.json)
    by_status = summary.get("by_status", {})
    bad = by_status.get("failed", 0) + by_status.get("timeout", 0)
    return 1 if bad else 0


def top_main(args: argparse.Namespace) -> int:
    """The ``top`` verb: live dashboard over a running server's socket.

    Connects to the UNIX-domain socket of a ``serve --socket`` process,
    drives its ``stats-stream`` verb and renders each tick as one
    :func:`~repro.obs.live.render_dashboard` frame.  ``--once`` prints a
    single frame and exits (scripting/tests); otherwise frames refresh
    every ``--interval`` seconds until ``--count`` frames (or Ctrl-C).
    """
    import json
    import socket

    from repro.obs.live import render_dashboard
    from repro.serve.protocol import encode

    frames = 1 if args.once else args.count
    previous = None
    rendered = 0
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(args.socket)
            fh = conn.makefile("rwb")
            while frames is None or rendered < frames:
                # one stats-stream request per chunk; the server paces the
                # ticks, the client renders each line as it arrives
                chunk = 30 if frames is None else frames - rendered
                fh.write((encode({
                    "op": "stats-stream",
                    "count": chunk,
                    "interval_s": args.interval if chunk > 1 else 0,
                    "flight_tail": args.flight_tail,
                }) + "\n").encode())
                fh.flush()
                for _ in range(chunk):
                    raw = fh.readline()
                    if not raw:
                        print("server closed the connection", file=sys.stderr)
                        return 1
                    tick = json.loads(raw)
                    if tick.get("op") == "error":
                        print(f"server error: {tick.get('error')}",
                              file=sys.stderr)
                        return 1
                    if not args.once and sys.stdout.isatty():
                        print("\x1b[2J\x1b[H", end="")
                    print(render_dashboard(tick, previous), flush=True)
                    previous = tick
                    rendered += 1
                if frames is None:
                    time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except OSError as exc:
        print(f"cannot reach server at {args.socket}: {exc}", file=sys.stderr)
        return 1
    return 0


def simtest_main(args: argparse.Namespace) -> int:
    """The ``simtest`` verb: deterministic simulation of the runtime.

    Sweeps seeds (``--seeds``, or a committed corpus via ``--corpus``),
    running the serving + resilience stack under a virtual clock and a
    seeded cooperative schedule; every run is executed twice and the
    trace digests compared, so nondeterminism is itself a failure.  On
    an invariant violation the workload is delta-debugged and a
    self-contained ``simtest-repro-<seed>.json`` lands in ``--out-dir``.
    ``--replay`` runs such a file back.  Exits 1 on any failure.
    """
    import json
    from pathlib import Path

    from repro.simtest import load_repro, replay_repro, run_simtest
    from repro.simtest.fuzzer import CORPUS_FORMAT

    if args.replay is not None:
        doc = load_repro(args.replay)
        report = replay_repro(doc)
        reproduced = any(
            v.invariant == doc.get("invariant") for v in report.violations
        )
        out = {
            "format": "simtest-replay-v1",
            "repro": str(args.replay),
            "seed": doc["seed"],
            "invariant": doc.get("invariant"),
            "reproduced": reproduced,
            "violations": [v.to_dict() for v in report.violations],
            "steps": report.steps,
            "digest": report.digest,
        }
        if args.json is not None:
            _emit(out, args.json)
        else:
            status = "reproduced" if reproduced else "NOT reproduced"
            print(f"simtest replay {args.replay}: {out['invariant']} "
                  f"{status} in {report.steps} steps")
            for violation in report.violations:
                print(f"  {violation.invariant}: {violation.detail}")
        return 0 if reproduced else 1

    if args.corpus is not None:
        corpus = json.loads(Path(args.corpus).read_text(encoding="utf-8"))
        if corpus.get("format") != CORPUS_FORMAT:
            print(f"{args.corpus}: not a {CORPUS_FORMAT} file",
                  file=sys.stderr)
            return 2
        seeds = [int(s) for s in corpus["seeds"]]
        ops = int(corpus.get("ops", args.ops))
    else:
        seeds = [args.seed + i for i in range(args.seeds)]
        ops = args.ops

    summary = run_simtest(seeds, ops=ops, out_dir=args.out_dir)
    if args.json is not None:
        _emit(summary, args.json)
    else:
        print(f"simtest: {summary['seeds']} seeds, "
              f"{summary['failures']} failures, "
              f"{summary['total_steps']} scheduling steps")
        for entry in summary["results"]:
            if entry["ok"]:
                continue
            first = entry["violations"][0]
            print(f"  seed {entry['seed']}: {first['invariant']} — "
                  f"{first['detail']}")
            if "repro" in entry:
                print(f"    repro: {entry['repro']}")
    return 0 if summary["failures"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """The single subcommand parser behind ``python -m repro``."""
    common = [_common_parent()]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of the Pragma paper "
        "(Parashar & Hariri, IPDPS 2002).",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser(
        "run",
        parents=common,
        help="run paper-fidelity experiments (reference trace)",
        description="Run experiments at paper fidelity and print the "
        "corresponding tables/figures.",
    )
    p_run.add_argument(
        "experiments",
        nargs="+",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment(s) to run ('all' for everything)",
    )
    p_run.set_defaults(func=run_main)

    p_sweep = sub.add_parser(
        "sweep",
        parents=common,
        help="parallel cache-aware sweep over the registered scenarios",
        description="Run the registered scenario set (experiments, "
        "ablations, chaos configs) in parallel with content-addressed "
        "result caching.",
    )
    p_sweep.add_argument(
        "--filter", default=None, metavar="PATTERN",
        help="substring or glob over scenario names (default: all)",
    )
    p_sweep.add_argument(
        "--tag", action="append", default=[], metavar="TAG",
        help="restrict to scenarios carrying TAG (repeatable; AND)",
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default 1 = serial; results are "
        "bit-identical across job counts)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="skip cache reads and writes (always execute)",
    )
    p_sweep.add_argument(
        "--list", action="store_true",
        help="list the registered scenarios and exit",
    )
    p_sweep.set_defaults(func=sweep_main)

    p_report = sub.add_parser(
        "report",
        parents=common,
        help="observed quickstart run report",
        description="Run the quickstart scenario under the observability "
        "layer and report per-phase timings, partitioner switching and "
        "message-center traffic.",
    )
    p_report.add_argument(
        "--steps", type=int, default=160,
        help="coarse steps for the trace-replay runs (default 160)",
    )
    p_report.add_argument(
        "--online-steps", type=int, default=48,
        help="coarse steps for the event-driven online run (default 48; "
        "0 disables it)",
    )
    p_report.add_argument(
        "--spans", action="store_true",
        help="include individual span records in the JSON output",
    )
    p_report.set_defaults(func=report_main)

    p_chaos = sub.add_parser(
        "chaos",
        parents=common,
        help="Poisson failure sweep through the fault-tolerant simulator",
        description="Sweep seeded Poisson failure schedules through the "
        "fault-tolerant execution simulator and check the recovery "
        "invariants (no work lost, patches on live nodes, bounded "
        "recovery lag).",
    )
    p_chaos.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="failure-schedule seeds, one replay each "
        "(default: --seed, --seed+1, --seed+2)",
    )
    p_chaos.add_argument(
        "--steps", type=int, default=None,
        help="coarse steps per replay (default 96; 48 with --matrix)",
    )
    p_chaos.add_argument(
        "--procs", type=int, default=None,
        help="processors in the simulated cluster (default 16; 8 with "
        "--matrix)",
    )
    p_chaos.add_argument(
        "--matrix", action="store_true",
        help="run the gray-failure fault matrix (crash / degraded / "
        "flapping / partition / checkpoint x intensity) instead of the "
        "Poisson sweep",
    )
    p_chaos.add_argument(
        "--intensity", choices=("low", "high"), nargs="+", default=None,
        help="restrict --matrix to these intensities (default: both)",
    )
    p_chaos.add_argument(
        "--mtbf", type=float, default=300.0,
        help="per-node mean time between failures, seconds (default 300)",
    )
    p_chaos.add_argument(
        "--mttr", type=float, default=40.0,
        help="mean time to repair, seconds (default 40)",
    )
    p_chaos.add_argument(
        "--loss-rate", type=float, default=0.05,
        help="message-center loss rate for the agent soak (default 0.05; "
        "0 skips the soak)",
    )
    p_chaos.set_defaults(func=chaos_main)

    p_trace = sub.add_parser(
        "trace",
        parents=common,
        help="traced quickstart run as Chrome trace-event JSON",
        description="Run a reduced quickstart scenario under causal "
        "tracing and emit Chrome trace-event JSON (Perfetto-loadable): "
        "spans as complete events, message sends linked to their handlers "
        "via flow arrows.",
    )
    p_trace.add_argument(
        "--steps", type=int, default=48,
        help="coarse steps for the trace-replay run (default 48)",
    )
    p_trace.add_argument(
        "--online-steps", type=int, default=24,
        help="coarse steps for the event-driven online run (default 24; "
        "0 disables it)",
    )
    p_trace.add_argument(
        "--timeline", default=None, metavar="PATH",
        help="also write the collection window's timeline as JSONL",
    )
    p_trace.set_defaults(func=trace_main)

    p_serve = sub.add_parser(
        "serve",
        parents=common,
        help="scenario-serving runtime speaking JSONL requests",
        description="Run the long-running scenario server: bounded "
        "priority admission, request coalescing on the sweep cache key, "
        "batched dispatch on a persistent worker pool, and explicit load "
        "shedding.  Requests are JSONL documents on stdin (default), a "
        "file, or a local socket.",
    )
    p_serve.add_argument(
        "--requests", default=None, metavar="FILE",
        help="read JSONL requests from FILE instead of stdin",
    )
    p_serve.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve JSONL connections on a UNIX-domain socket at PATH "
        "until a client sends {\"op\": \"shutdown\"}",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="persistent worker threads (default 2)",
    )
    p_serve.add_argument(
        "--queue-capacity", type=int, default=64, metavar="N",
        help="bounded admission queue depth; requests beyond it are "
        "shed with reason 'queue-full' (default 64)",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=4, metavar="N",
        help="max compatible jobs dispatched per batch (default 4)",
    )
    p_serve.add_argument(
        "--no-cache", action="store_true",
        help="skip result-cache reads and writes (always execute)",
    )
    p_serve.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="append one JSONL metrics snapshot to PATH every "
        "--snapshot-interval seconds",
    )
    p_serve.add_argument(
        "--snapshot-interval", type=float, default=5.0, metavar="S",
        help="seconds between periodic snapshots (default 5)",
    )
    p_serve.add_argument(
        "--flight-dump", default=None, metavar="PATH",
        help="dump the flight recorder (last serve events) to PATH as "
        "JSONL on shutdown",
    )
    p_serve.set_defaults(func=serve_main)

    p_top = sub.add_parser(
        "top",
        parents=common,
        help="live dashboard over a running server's socket",
        description="Connect to a 'serve --socket' process and render a "
        "refreshing terminal dashboard from its stats-stream verb: lane "
        "depths, throughput, dedup/cache reuse, latency quantiles, SLO "
        "burn rates and the flight-recorder tail.",
    )
    p_top.add_argument(
        "--socket", required=True, metavar="PATH",
        help="UNIX-domain socket of the running server (required)",
    )
    p_top.add_argument(
        "--interval", type=float, default=2.0, metavar="S",
        help="seconds between dashboard refreshes (default 2)",
    )
    p_top.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="render N frames then exit (default: until Ctrl-C)",
    )
    p_top.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    p_top.add_argument(
        "--flight-tail", type=int, default=8, metavar="N",
        help="flight-recorder events to show per frame (default 8)",
    )
    p_top.set_defaults(func=top_main)

    p_sim = sub.add_parser(
        "simtest",
        parents=common,
        help="deterministic simulation testing of the serving runtime",
        description="Run the serving + resilience stack under a virtual "
        "clock and a seeded cooperative scheduler: every interleaving is "
        "a pure function of one integer seed, invariants are checked "
        "after every scheduling step, each seed is run twice to prove "
        "determinism, and violations are minimized into self-contained "
        "simtest-repro-<seed>.json files.",
    )
    p_sim.add_argument(
        "--seeds", type=int, default=50, metavar="N",
        help="number of seeds to sweep, starting at --seed (default 50)",
    )
    p_sim.add_argument(
        "--ops", type=int, default=24, metavar="N",
        help="workload ops generated per seed before the trailing "
        "awaits (default 24)",
    )
    p_sim.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="run the seeds of a committed simtest-corpus-v1 JSON file "
        "instead of a --seeds range",
    )
    p_sim.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-run a simtest-repro-<seed>.json file's minimized "
        "script; exits 0 when the violation reproduces",
    )
    p_sim.add_argument(
        "--out-dir", default="simtest-repros", metavar="DIR",
        help="directory for repro files on failure "
        "(default: simtest-repros/)",
    )
    p_sim.set_defaults(func=simtest_main)

    p_diff = sub.add_parser(
        "benchdiff",
        parents=common,
        help="bench regression gate: compare two BENCH_*.json documents",
        description="Flatten two bench documents to dotted-path leaves "
        "and compare numeric leaves within per-metric tolerances; "
        "wall-clock-like metrics are ignored.  Exits 1 on regression or "
        "on metrics missing from the current document.",
    )
    p_diff.add_argument("baseline", help="committed baseline JSON document")
    p_diff.add_argument("current", help="freshly generated JSON document")
    p_diff.add_argument(
        "--rel-tol", type=float, default=0.01,
        help="default relative tolerance per numeric leaf (default 0.01)",
    )
    p_diff.add_argument(
        "--abs-tol", type=float, default=1e-6,
        help="absolute tolerance floor for near-zero leaves (default 1e-6)",
    )
    p_diff.set_defaults(func=benchdiff_main)

    p_eb = sub.add_parser(
        "execsim-bench",
        parents=common,
        help="benchmark the regrid reuse cache",
        description="Replay the regrid reuse cache over the RM3D and a "
        "localized trace and verify the final units match a full "
        "rebuild; JSON output is the reuse section of "
        "BENCH_execsim.json.",
    )
    p_eb.set_defaults(func=execsim_bench_main)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "report":
        if args.steps < 1:
            parser.error(f"--steps must be >= 1, got {args.steps}")
        if args.online_steps < 0:
            parser.error(
                f"--online-steps must be >= 0, got {args.online_steps}"
            )
    if args.verb == "sweep" and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.verb == "serve":
        if args.workers < 1:
            parser.error(f"--workers must be >= 1, got {args.workers}")
        if args.queue_capacity < 1:
            parser.error(
                f"--queue-capacity must be >= 1, got {args.queue_capacity}"
            )
        if args.max_batch < 1:
            parser.error(f"--max-batch must be >= 1, got {args.max_batch}")
        if args.requests is not None and args.socket is not None:
            parser.error("--requests and --socket are mutually exclusive")
        if args.snapshot_interval <= 0:
            parser.error(
                f"--snapshot-interval must be > 0, got {args.snapshot_interval}"
            )
    if args.verb == "top":
        if args.interval <= 0:
            parser.error(f"--interval must be > 0, got {args.interval}")
        if args.count is not None and args.count < 1:
            parser.error(f"--count must be >= 1, got {args.count}")
        if args.flight_tail < 0:
            parser.error(f"--flight-tail must be >= 0, got {args.flight_tail}")
    if args.verb == "trace":
        if args.steps < 1:
            parser.error(f"--steps must be >= 1, got {args.steps}")
        if args.online_steps < 0:
            parser.error(
                f"--online-steps must be >= 0, got {args.online_steps}"
            )
    if args.verb == "simtest":
        if args.seeds < 1:
            parser.error(f"--seeds must be >= 1, got {args.seeds}")
        if args.ops < 1:
            parser.error(f"--ops must be >= 1, got {args.ops}")
        if args.corpus is not None and args.replay is not None:
            parser.error("--corpus and --replay are mutually exclusive")
    if args.verb == "benchdiff":
        if args.rel_tol < 0:
            parser.error(f"--rel-tol must be >= 0, got {args.rel_tol}")
        if args.abs_tol < 0:
            parser.error(f"--abs-tol must be >= 0, got {args.abs_tol}")
    try:
        return args.func(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
