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

import importlib
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro import obs
from repro.partitioners import deterministic_partition_time
from repro.sweep.cache import ResultCache, cache_key
from repro.sweep.scenario import (
    Scenario,
    filter_scenarios,
    get_scenario,
    jsonify,
    shared_trace,
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


def _import_scenario_modules(modules: Sequence[str]) -> None:
    """Import the modules that populate the scenario registry."""
    for module in modules:
        importlib.import_module(module)


def _execute_scenario(
    name: str, base_seed: int, cache_dir: str | None,
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
    scenario = get_scenario(name)
    ctx = scenario.make_context(
        base_seed, Path(cache_dir) if cache_dir else None
    )
    t0 = time.perf_counter()
    if collect_spans:
        with obs.collect() as window, deterministic_partition_time():
            result = scenario.run(ctx)
        spans = window.tracer.to_dicts()
    else:
        with deterministic_partition_time():
            result = scenario.run(ctx)
        spans = None
    wall = time.perf_counter() - t0
    payload: dict[str, Any] = {"wall_s": wall, "result": jsonify(result)}
    if spans is not None:
        payload["spans"] = spans
    return payload


def _worker_init(modules: Sequence[str]) -> None:
    """Process-pool initializer: populate the worker's registry."""
    _import_scenario_modules(modules)


def _warm_requirement(req: str, cache_dir: Path | None) -> None:
    """Materialize one shared input (e.g. ``"trace:small"``) in the parent.

    Done before fanning out so N workers do not all generate the same
    multi-second input; unknown requirement kinds are ignored (a
    scenario may declare inputs only it knows how to build).
    """
    kind, _, arg = req.partition(":")
    if kind == "trace" and arg:
        shared_trace(arg, cache_dir)


class SweepRunner:
    """Executes scenario sets in parallel with content-addressed caching.

    ``jobs`` is the worker-process count (1 = serial, in-process);
    ``use_cache=False`` skips both cache reads and writes; ``base_seed``
    feeds every scenario's deterministic seed derivation, so two sweeps
    with the same base seed and scenario set are reproducible.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: ResultCache | None = None,
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
        self.cache = cache if cache is not None else ResultCache(
            self.cache_dir / "sweep" if self.cache_dir is not None else None
        )
        self.scenario_modules = tuple(scenario_modules)

    # -- internals -------------------------------------------------------------

    def _lookup(self, scenario: Scenario, key: str) -> TaskResult | None:
        """Resolve one task from the cache, or ``None`` on a miss."""
        if not self.use_cache:
            return None
        t0 = time.perf_counter()
        doc = self.cache.get(key)
        if doc is None:
            return None
        return TaskResult(
            name=scenario.name,
            params=dict(scenario.params),
            seed=scenario.derive_seed(self.base_seed),
            key=key,
            cached=True,
            wall_s=time.perf_counter() - t0,
            result=doc.get("result"),
        )

    def _store(self, scenario: Scenario, key: str, task: TaskResult) -> None:
        """Write one fresh result back to the cache (parent-only)."""
        if not self.use_cache or not task.ok:
            return
        self.cache.put(key, {
            "scenario": scenario.name,
            "params": dict(scenario.params),
            "version": scenario.version,
            "seed": task.seed,
            "wall_s": task.wall_s,
            "result": task.result,
        })

    def _run_serial(self, scenario: Scenario, key: str) -> TaskResult:
        """Execute one miss in-process (the ``jobs=1`` path)."""
        seed = scenario.derive_seed(self.base_seed)
        with obs.span("sweep.task", scenario=scenario.name):
            t0 = time.perf_counter()
            try:
                ctx = scenario.make_context(self.base_seed, self.cache_dir)
                with deterministic_partition_time():
                    result = jsonify(scenario.run(ctx))
                error = None
            except Exception as exc:  # noqa: BLE001 - isolate task failures
                result, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        return TaskResult(
            name=scenario.name, params=dict(scenario.params), seed=seed,
            key=key, cached=False, wall_s=wall, result=result, error=error,
        )

    def _run_parallel(
        self, misses: list[tuple[int, Scenario, str]]
    ) -> dict[int, TaskResult]:
        """Fan misses across the pool; returns results keyed by task index."""
        cache_dir = str(self.cache_dir) if self.cache_dir is not None else None
        out: dict[int, TaskResult] = {}
        tracer = obs.get_tracer()
        collect_spans = tracer.enabled
        with obs.span("sweep.batch", jobs=self.jobs, tasks=len(misses)):
            batch_t0 = (
                time.perf_counter() - tracer.epoch if collect_spans else 0.0
            )
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(misses)),
                initializer=_worker_init,
                initargs=(self.scenario_modules,),
            ) as pool:
                futures = [
                    (idx, scenario, key, pool.submit(
                        _execute_scenario, scenario.name, self.base_seed,
                        cache_dir, collect_spans,
                    ))
                    for idx, scenario, key in misses
                ]
                # Collect in submission order: deterministic output
                # independent of completion order.
                for idx, scenario, key, future in futures:
                    seed = scenario.derive_seed(self.base_seed)
                    try:
                        payload = future.result()
                        task = TaskResult(
                            name=scenario.name, params=dict(scenario.params),
                            seed=seed, key=key, cached=False,
                            wall_s=payload["wall_s"],
                            result=payload["result"],
                        )
                        if collect_spans and payload.get("spans"):
                            # Graft the worker's span tree into the parent
                            # trace, re-rooted under a per-scenario prefix
                            # and shifted to the batch's start time.
                            tracer.import_spans(
                                payload["spans"],
                                prefix=f"sweep.worker/{scenario.name}",
                                offset=batch_t0,
                            )
                    except Exception as exc:  # noqa: BLE001
                        task = TaskResult(
                            name=scenario.name, params=dict(scenario.params),
                            seed=seed, key=key, cached=False, wall_s=0.0,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    out[idx] = task
        return out

    # -- public API --------------------------------------------------------------

    def run(self, scenarios: Sequence[Scenario]) -> SweepResult:
        """Execute ``scenarios`` (in order); returns the ordered results."""
        t_start = time.perf_counter()
        keys = [
            cache_key(s.name, s.params, version=s.version) for s in scenarios
        ]
        tasks: list[TaskResult | None] = [None] * len(scenarios)
        misses: list[tuple[int, Scenario, str]] = []
        for idx, (scenario, key) in enumerate(zip(scenarios, keys)):
            hit = self._lookup(scenario, key)
            if hit is not None:
                tasks[idx] = hit
                obs.counter("sweep.cache.hits").inc()
            else:
                misses.append((idx, scenario, key))
                obs.counter("sweep.cache.misses").inc()

        if misses:
            for req in sorted({r for _, s, _ in misses for r in s.requires}):
                _warm_requirement(req, self.cache_dir)
            if self.jobs > 1 and len(misses) > 1:
                fresh = self._run_parallel(misses)
            else:
                fresh = {
                    idx: self._run_serial(scenario, key)
                    for idx, scenario, key in misses
                }
            for idx, scenario, key in misses:
                task = fresh[idx]
                tasks[idx] = task
                self._store(scenario, key, task)

        done: list[TaskResult] = [t for t in tasks if t is not None]
        for task in done:
            obs.counter("sweep.tasks", scenario=task.name).inc()
            obs.histogram("sweep.task_seconds").observe(task.wall_s)
            if not task.ok:
                obs.counter("sweep.errors", scenario=task.name).inc()
        return SweepResult(
            tasks=done,
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
    _import_scenario_modules(scenario_modules)
    scenarios = filter_scenarios(pattern, tags)
    runner = SweepRunner(
        jobs,
        use_cache=use_cache,
        base_seed=base_seed,
        cache_dir=cache_dir,
        scenario_modules=scenario_modules,
    )
    return runner.run(scenarios)
