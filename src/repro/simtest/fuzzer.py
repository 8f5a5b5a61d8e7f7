"""The schedule fuzzer: seed sweeps, minimization, repro files.

``python -m repro simtest --seeds N`` runs here.  Each seed derives a
workload script (:func:`~repro.simtest.script.generate_script`) and a
cooperative schedule (:class:`~repro.simtest.scheduler.SimScheduler`),
executes the world twice, and compares the two runs' trace digests —
same seed must mean byte-identical behavior, so nondeterminism is
itself a reported failure, not just a flaky test.

On an invariant violation the fuzzer delta-debugs the script (drop the
death-injection rate if the violation survives without it, then ddmin
over the op list) and writes a self-contained
``simtest-repro-<seed>.json``: format tag, seed, original + minimized
script, the violations, and the minimized run's trace / invariant-log /
flight-recorder tails.  :func:`replay_repro` runs such a file back
through the same door.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.simtest.invariants import Violation
from repro.simtest.script import WorkloadScript, generate_script
from repro.simtest.world import SimWorld
from repro.util.fileio import write_file

__all__ = [
    "SimReport",
    "run_script",
    "run_simtest",
    "minimize_script",
    "write_repro",
    "load_repro",
    "replay_repro",
    "REPRO_FORMAT",
    "CORPUS_FORMAT",
]

REPRO_FORMAT = "simtest-repro-v1"
CORPUS_FORMAT = "simtest-corpus-v1"

#: run-budget for the minimizer (each probe is a full simulated run)
_MINIMIZE_BUDGET = 60


@dataclass
class SimReport:
    """Everything one simulated run produced."""

    seed: int
    steps: int
    violations: list[Violation]
    trace: list[dict[str, Any]]
    grants: list[tuple[int, str, str]]
    invariant_log: list[str]
    digest: str
    flight: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every invariant held."""
        return not self.violations


def _digest(trace: list[dict[str, Any]],
            grants: list[tuple[int, str, str]],
            invariant_log: list[str]) -> str:
    doc = {
        "trace": trace,
        "grants": [list(g) for g in grants],
        "log": invariant_log,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_script(script: WorkloadScript, seed: int, *,
               max_steps: int = 50_000) -> SimReport:
    """Execute one script under the schedule derived from ``seed``."""
    world = SimWorld(script, seed)
    world.run(max_steps=max_steps)
    digest = _digest(world.trace, world.sched.trace, world.checker.log)
    return SimReport(
        seed=seed,
        steps=world.sched.steps,
        violations=list(world.checker.violations),
        trace=world.trace,
        grants=world.sched.trace,
        invariant_log=world.checker.log,
        digest=digest,
        flight=world.server._flight.tail(64),
    )


# -- minimization ----------------------------------------------------------------


def _still_fails(script: WorkloadScript, seed: int,
                 invariant: str) -> SimReport | None:
    report = run_script(script, seed)
    if any(v.invariant == invariant for v in report.violations):
        return report
    return None


def minimize_script(
    script: WorkloadScript,
    seed: int,
    invariant: str,
    *,
    budget: int = _MINIMIZE_BUDGET,
) -> tuple[WorkloadScript, SimReport]:
    """Shrink ``script`` while the same invariant still fails.

    Delta debugging (ddmin) over the op list — every subset of an op
    list is a valid script because ops referencing unknown handles are
    skipped — preceded by one attempt to zero the death-injection rate.
    Each probe replays the *same* scheduler seed, so "still fails" means
    the same schedule family reproduces the same violation.  Returns the
    smallest failing script found and its report.
    """
    best = script
    best_report = _still_fails(script, seed, invariant)
    if best_report is None:
        raise ValueError(
            f"script does not violate {invariant!r} under seed {seed}"
        )
    runs = 0

    def probe(candidate: WorkloadScript) -> SimReport | None:
        nonlocal runs
        if runs >= budget:
            return None
        runs += 1
        return _still_fails(candidate, seed, invariant)

    if best.death_rate:
        doc = best.to_dict()
        doc["death_rate"] = 0.0
        report = probe(WorkloadScript.from_dict(doc))
        if report is not None:
            best = WorkloadScript.from_dict(doc)
            best_report = report

    ops = list(best.ops)
    n = 2
    while len(ops) >= 2 and runs < budget:
        chunk = max(1, len(ops) // n)
        reduced = None
        for i in range(0, len(ops), chunk):
            candidate_ops = ops[:i] + ops[i + chunk:]
            if not candidate_ops:
                continue
            report = probe(best.replace_ops(candidate_ops))
            if report is not None:
                reduced = (candidate_ops, report)
                break
        if reduced is not None:
            ops, best_report = reduced
            best = best.replace_ops(ops)
            n = max(n - 1, 2)
        else:
            if n >= len(ops):
                break
            n = min(n * 2, len(ops))
    return best, best_report


# -- repro files -----------------------------------------------------------------


def write_repro(
    directory: str | Path,
    *,
    seed: int,
    script: WorkloadScript,
    minimized: WorkloadScript,
    report: SimReport,
    min_report: SimReport,
) -> Path:
    """Write a self-contained ``simtest-repro-<seed>.json``."""
    path = Path(directory) / f"simtest-repro-{seed}.json"
    doc = {
        "format": REPRO_FORMAT,
        "seed": seed,
        "invariant": report.violations[0].invariant,
        "violations": [v.to_dict() for v in report.violations],
        "minimized_violations": [
            v.to_dict() for v in min_report.violations
        ],
        "script": script.to_dict(),
        "minimized_script": minimized.to_dict(),
        "original_ops": len(script.ops),
        "minimized_ops": len(minimized.ops),
        "steps": min_report.steps,
        "digest": min_report.digest,
        "trace_tail": min_report.trace[-80:],
        "grant_tail": [list(g) for g in min_report.grants[-120:]],
        "invariant_log_tail": min_report.invariant_log[-40:],
        "flight_tail": min_report.flight,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return write_file(path, text.encode("utf-8"))


def load_repro(path: str | Path) -> dict[str, Any]:
    """Load and validate a repro file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != REPRO_FORMAT:
        raise ValueError(
            f"{path}: not a {REPRO_FORMAT} file "
            f"(format={doc.get('format')!r})"
        )
    return doc


def replay_repro(source: str | Path | dict[str, Any]) -> SimReport:
    """Re-run a repro file's minimized script under its original seed."""
    doc = source if isinstance(source, dict) else load_repro(source)
    script = WorkloadScript.from_dict(doc["minimized_script"])
    return run_script(script, int(doc["seed"]))


# -- seed sweeps -----------------------------------------------------------------


def run_simtest(
    seeds: Iterable[int],
    *,
    ops: int = 24,
    check_determinism: bool = True,
    minimize: bool = True,
    out_dir: str | Path | None = None,
    max_steps: int = 50_000,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Fuzz a set of seeds; returns a JSON-ready summary.

    For each seed: derive a script, run it (twice when
    ``check_determinism`` — unequal digests are a
    ``replay-determinism`` failure), and on violation minimize the
    script and write a repro file into ``out_dir``.
    """
    results: list[dict[str, Any]] = []
    failures = 0
    total_steps = 0
    for seed in seeds:
        script = generate_script(seed, ops=ops)
        report = run_script(script, seed, max_steps=max_steps)
        if check_determinism and report.ok:
            rerun = run_script(script, seed, max_steps=max_steps)
            if rerun.digest != report.digest:
                report.violations.append(Violation(
                    invariant="replay-determinism",
                    detail=(
                        f"two runs of seed {seed} diverged: "
                        f"{report.digest[:16]} != {rerun.digest[:16]}"
                    ),
                    step=min(report.steps, rerun.steps),
                ))
        entry: dict[str, Any] = {
            "seed": seed,
            "ok": report.ok,
            "steps": report.steps,
            "ops": len(script.ops),
            "digest": report.digest,
        }
        total_steps += report.steps
        if not report.ok:
            failures += 1
            entry["violations"] = [v.to_dict() for v in report.violations]
            invariant = report.violations[0].invariant
            if minimize and invariant != "replay-determinism":
                minimized, min_report = minimize_script(
                    script, seed, invariant
                )
                entry["minimized_ops"] = len(minimized.ops)
                if out_dir is not None:
                    path = write_repro(
                        out_dir, seed=seed, script=script,
                        minimized=minimized, report=report,
                        min_report=min_report,
                    )
                    entry["repro"] = str(path)
            elif out_dir is not None:
                path = write_repro(
                    out_dir, seed=seed, script=script, minimized=script,
                    report=report, min_report=report,
                )
                entry["repro"] = str(path)
        if progress is not None:
            status = "ok" if report.ok else (
                report.violations[0].invariant
            )
            progress(f"seed {seed}: {status} ({report.steps} steps)")
        results.append(entry)
    return {
        "format": "simtest-summary-v1",
        "seeds": len(results),
        "failures": failures,
        "total_steps": total_steps,
        "results": results,
    }
