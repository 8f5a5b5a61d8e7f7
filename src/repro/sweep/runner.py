"""The parallel, cache-aware sweep engine.

:class:`SweepRunner` executes a list of registered scenarios: cache hits
are resolved in the parent (no worker is ever spawned for a fully warm
sweep), misses fan out across a :class:`~concurrent.futures.
ProcessPoolExecutor` (``jobs`` workers; ``jobs=1`` runs serially
in-process), and results are collected in task order so the output is
deterministic regardless of completion order.  Fresh results are written
back to the content-addressed :class:`~repro.sweep.cache.ResultCache` by
the parent only — workers never touch the cache, so there are no write
races.

Observability: the sweep emits ``sweep.tasks`` / ``sweep.cache.hits`` /
``sweep.cache.misses`` / ``sweep.errors`` counters and a
``sweep.task_seconds`` histogram through :mod:`repro.obs`, plus per-task
spans on the serial path and a batch span around the parallel fan-out.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.sweep.cache import ResultCache, cache_record
from repro.sweep.scenario import (
    Scenario,
    execute_scenario,
    filter_scenarios,
    get_scenario,
    import_scenario_modules,
    run_identity,
    warm_requirement,
)

__all__ = ["TaskResult", "SweepResult", "SweepRunner", "run_sweep"]

#: modules imported in every worker to (re)populate the scenario registry
DEFAULT_SCENARIO_MODULES = ("repro.sweep.builtin",)


@dataclass(slots=True)
class TaskResult:
    """Outcome of one scenario task within a sweep."""

    name: str
    params: dict[str, Any]
    seed: int
    key: str
    cached: bool
    wall_s: float
    result: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True when the task produced a result (no error)."""
        return self.error is None

    def to_dict(self) -> dict[str, Any]:
        """The task record as a JSON-ready document."""
        return {
            "name": self.name,
            "params": self.params,
            "seed": self.seed,
            "key": self.key,
            "cached": self.cached,
            "wall_s": self.wall_s,
            "error": self.error,
            "result": self.result,
        }


@dataclass(slots=True)
class SweepResult:
    """Outcome of one sweep: ordered task results plus aggregates."""

    tasks: list[TaskResult] = field(default_factory=list)
    jobs: int = 1
    base_seed: int = 0
    total_wall_s: float = 0.0
    cache_dir: str | None = None
    cache_enabled: bool = True

    @property
    def cache_hits(self) -> int:
        """Number of tasks resolved from the result cache."""
        return sum(t.cached for t in self.tasks)

    @property
    def cache_misses(self) -> int:
        """Number of tasks that actually executed."""
        return sum(not t.cached for t in self.tasks)

    @property
    def errors(self) -> list[TaskResult]:
        """Tasks that failed."""
        return [t for t in self.tasks if not t.ok]

    @property
    def ok(self) -> bool:
        """True when every task succeeded."""
        return not self.errors

    def to_dict(self) -> dict[str, Any]:
        """The sweep as a JSON-ready document (``BENCH_sweep.json`` shape)."""
        return {
            "bench": "sweep",
            "jobs": self.jobs,
            "base_seed": self.base_seed,
            "total_wall_s": self.total_wall_s,
            "cache": {
                "dir": self.cache_dir,
                "enabled": self.cache_enabled,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
            },
            "ok": self.ok,
            "tasks": [t.to_dict() for t in self.tasks],
        }

    def render(self) -> str:
        """Human-readable text rendering (the CLI's default output)."""
        lines = ["== Pragma scenario sweep =="]
        cache_note = (
            f"cache {self.cache_dir} (hits {self.cache_hits} / "
            f"misses {self.cache_misses})"
            if self.cache_enabled
            else "cache disabled"
        )
        lines.append(
            f"scenarios: {len(self.tasks)} | jobs {self.jobs} | {cache_note}"
        )
        for t in self.tasks:
            status = "hit " if t.cached else ("FAIL" if not t.ok else "run ")
            note = f"  ! {t.error}" if t.error else ""
            lines.append(f"  [{status}] {t.name:<28} {t.wall_s:8.3f}s{note}")
        lines.append(
            f"total wall {self.total_wall_s:.3f}s | "
            f"{'ok' if self.ok else f'{len(self.errors)} FAILED'}"
        )
        return "\n".join(lines)


def _execute_in_worker(
    name: str, params: dict[str, Any], seed: int, cache_dir: Path | None,
    collect_spans: bool = False,
) -> dict[str, Any]:
    """Run one registered scenario; returns ``{"wall_s", "result"}``.

    Module-level so it is picklable for the process pool; looks the
    scenario up in this process's registry (workers import the scenario
    modules in their initializer).  With ``collect_spans`` the scenario
    runs under its own collection window and the payload carries the
    worker's span dicts (``"spans"``), which the parent grafts into its
    tracer — sweep traces then show per-worker activity.
    """
    t0 = time.perf_counter()
    with obs.collect() if collect_spans else nullcontext() as window:
        result = execute_scenario(get_scenario(name), params, seed, cache_dir)
    payload = {"wall_s": time.perf_counter() - t0, "result": result}
    if window is not None:
        payload["spans"] = window.tracer.to_dicts()
    return payload


class SweepRunner:
    """Executes scenario sets in parallel with content-addressed caching.

    ``jobs`` is the worker-process count (1 = serial, in-process);
    ``use_cache=False`` skips both cache reads and writes; ``base_seed``
    feeds every scenario's deterministic seed derivation, so two sweeps
    with the same base seed and scenario set are reproducible.  Results
    are cached under ``cache_dir/sweep`` (``.cache/sweep`` by default).
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        use_cache: bool = True,
        base_seed: int = 0,
        cache_dir: str | Path | None = None,
        scenario_modules: Sequence[str] = DEFAULT_SCENARIO_MODULES,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.use_cache = use_cache
        self.base_seed = base_seed
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache = ResultCache(
            self.cache_dir / "sweep" if self.cache_dir is not None else None
        )
        self.scenario_modules = tuple(scenario_modules)

    # -- internals -------------------------------------------------------------

    def _run_serial(self, task: TaskResult, scenario: Scenario) -> None:
        """Execute one miss in-process (the ``jobs=1`` path)."""
        with obs.span("sweep.task", scenario=scenario.name):
            t0 = time.perf_counter()
            try:
                task.result = execute_scenario(
                    scenario, task.params, task.seed, self.cache_dir
                )
            except Exception as exc:  # noqa: BLE001 - isolate task failures
                task.error = f"{type(exc).__name__}: {exc}"
            task.wall_s = time.perf_counter() - t0

    def _run_parallel(self, misses: list[TaskResult]) -> None:
        """Fan misses across the pool, filling each task in place."""
        w = obs.current()
        with obs.span("sweep.batch", jobs=self.jobs, tasks=len(misses)):
            batch_t0 = (
                time.perf_counter() - w.tracer.epoch if w is not None else 0.0
            )
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(misses)),
                initializer=import_scenario_modules,
                initargs=(self.scenario_modules,),
            ) as pool:
                futures = [
                    (task, pool.submit(
                        _execute_in_worker, task.name, task.params, task.seed,
                        self.cache_dir, w is not None,
                    ))
                    for task in misses
                ]
                # Collect in submission order: deterministic output
                # independent of completion order.
                for task, future in futures:
                    try:
                        payload = future.result()
                    except Exception as exc:  # noqa: BLE001
                        task.error = f"{type(exc).__name__}: {exc}"
                        continue
                    task.wall_s = payload["wall_s"]
                    task.result = payload["result"]
                    if w is not None and payload.get("spans"):
                        # Graft the worker's span tree into the parent
                        # trace, re-rooted under a per-scenario prefix
                        # and shifted to the batch's start time.
                        w.tracer.import_spans(
                            payload["spans"],
                            prefix=f"sweep.worker/{task.name}",
                            offset=batch_t0,
                        )

    # -- public API --------------------------------------------------------------

    def run(self, scenarios: Sequence[Scenario]) -> SweepResult:
        """Execute ``scenarios`` (in order); returns the ordered results."""
        t_start = time.perf_counter()
        tasks: list[TaskResult] = []
        misses: list[tuple[TaskResult, Scenario]] = []
        for scenario in scenarios:
            params, seed, key = run_identity(scenario, base_seed=self.base_seed)
            task = TaskResult(name=scenario.name, params=params, seed=seed,
                              key=key, cached=False, wall_s=0.0)
            tasks.append(task)
            t0 = time.perf_counter()
            doc = self.cache.get(key) if self.use_cache else None
            if doc is not None:
                task.cached, task.result = True, doc["result"]
                task.wall_s = time.perf_counter() - t0
                obs.counter("sweep.cache.hits").inc()
            else:
                misses.append((task, scenario))
                obs.counter("sweep.cache.misses").inc()

        if misses:
            for req in sorted({r for _, s in misses for r in s.requires}):
                warm_requirement(req, self.cache_dir)
            if self.jobs > 1 and len(misses) > 1:
                self._run_parallel([task for task, _ in misses])
            else:
                for task, scenario in misses:
                    self._run_serial(task, scenario)
            for task, _ in misses:
                # parent-only writes: workers never touch the cache
                if self.use_cache and task.ok:
                    self.cache.put(task.key, cache_record(
                        task.name, task.params, task.seed, task.result
                    ))

        for task in tasks:
            obs.counter("sweep.tasks", scenario=task.name).inc()
            obs.histogram("sweep.task_seconds").observe(task.wall_s)
            if not task.ok:
                obs.counter("sweep.errors", scenario=task.name).inc()
        return SweepResult(
            tasks=tasks,
            jobs=self.jobs,
            base_seed=self.base_seed,
            total_wall_s=time.perf_counter() - t_start,
            cache_dir=str(self.cache.directory),
            cache_enabled=self.use_cache,
        )


def run_sweep(
    pattern: str | None = None,
    *,
    tags: Sequence[str] = (),
    jobs: int = 1,
    use_cache: bool = True,
    base_seed: int = 0,
    cache_dir: str | Path | None = None,
    scenario_modules: Sequence[str] = DEFAULT_SCENARIO_MODULES,
) -> SweepResult:
    """Run the registered scenario set matching ``pattern``/``tags``.

    Imports the scenario modules (populating the built-in registry),
    selects scenarios, and executes them through a :class:`SweepRunner`.
    This is the function behind ``python -m repro sweep``.
    """
    import_scenario_modules(scenario_modules)
    scenarios = filter_scenarios(pattern, tags)
    runner = SweepRunner(
        jobs,
        use_cache=use_cache,
        base_seed=base_seed,
        cache_dir=cache_dir,
        scenario_modules=scenario_modules,
    )
    return runner.run(scenarios)
