"""The Scenario protocol: uniform identity + entrypoint for every run.

The paper's evaluation is a family of repeated configurations — Tables
1–5, Figures 1–4, the ablations and the chaos sweeps — that the repo
historically executed through ad-hoc per-module ``run()`` functions with
incompatible signatures.  A :class:`Scenario` gives each configuration a
uniform identity (``name`` + canonicalized ``params`` + deterministic
seed derivation) and a uniform ``run(ctx) -> result`` entrypoint where
``result`` is a plain JSON document, so the sweep engine
(:mod:`repro.sweep.runner`) can fan scenarios across processes and cache
their results content-addressed (:mod:`repro.sweep.cache`).

Every front end — ``repro run``, the sweep engine and the scenario
server — runs a scenario through the same two functions:
:func:`run_identity` (merged params, derived seed and cache key) and
:func:`execute_scenario` (context, modeled partition time, ``jsonify``).

A process-local registry maps names to scenario objects; the built-in
set (every experiment, ablation and chaos configuration) is populated by
importing :mod:`repro.sweep.builtin`.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.partitioners import deterministic_partition_time
from repro.sweep.cache import code_salt

__all__ = [
    "Scenario",
    "FunctionScenario",
    "ScenarioContext",
    "canonical_params",
    "derive_seed",
    "execute_scenario",
    "import_scenario_modules",
    "jsonify",
    "run_identity",
    "warm_requirement",
    "register",
    "unregister",
    "get_scenario",
    "all_scenarios",
    "filter_scenarios",
]


def canonical_params(params: dict[str, Any]) -> str:
    """Order-independent canonical JSON encoding of a parameter set.

    Keys are sorted and separators fixed, so two dictionaries with the
    same contents in different insertion orders encode identically —
    the property the cache keys and seed derivation rely on.
    """
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def derive_seed(name: str, params: dict[str, Any], base_seed: int = 0) -> int:
    """Deterministic 32-bit seed of scenario ``name`` run with ``params``
    (see :func:`run_identity`)."""
    return run_identity(Scenario(name, params), base_seed=base_seed)[1]


def _np_default(obj: Any) -> Any:
    """JSON fallback for numpy scalars and arrays."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def jsonify(result: Any) -> Any:
    """Normalize a scenario result to plain JSON data.

    Round-trips through the JSON encoder (with a numpy fallback), which
    guarantees a fresh result and a cache-loaded result are structurally
    identical — the property the ``--jobs N`` vs ``--jobs 1``
    bit-identical determinism check rests on.
    """
    return json.loads(json.dumps(result, default=_np_default))


@dataclass(slots=True)
class ScenarioContext:
    """Everything a scenario run may depend on besides its parameters.

    ``seed`` is the run's derived seed (see :func:`run_identity`);
    scenarios with a paper-pinned seed in ``params`` are free to ignore
    it.  ``cache_dir`` points at the shared input cache (reference
    traces); ``trace`` loads the shared RM3D traces through it.
    """

    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    cache_dir: Path | None = None

    def trace(self, spec: str | None = None):
        """Load a shared RM3D adaptation trace by spec.

        ``"small"`` is the reduced CI-sized trace, ``"reference"`` the
        paper's full 800-step trace; both are disk-cached (atomically)
        under ``cache_dir`` and memoized per process.
        """
        if spec is None:
            spec = self.params.get("trace", "small")
        return shared_trace(spec, self.cache_dir)


#: per-process memo of shared traces: (spec, cache_dir) -> trace
_TRACE_MEMO: dict[tuple[str, str], Any] = {}


def warm_requirement(req: str, cache_dir: Path | None) -> None:
    """Materialize one shared input (e.g. ``"trace:small"``) ahead of runs.

    The sweep warms in the parent so N workers do not all generate the
    same multi-second input, the server once per batch; unknown
    requirement kinds are ignored (a scenario may declare inputs only it
    knows how to build).
    """
    kind, _, arg = req.partition(":")
    if kind == "trace" and arg:
        shared_trace(arg, cache_dir)


def shared_trace(spec: str, cache_dir: Path | None = None):
    """The shared trace for ``spec`` (``"small"`` or ``"reference"``)."""
    key = (spec, str(cache_dir) if cache_dir is not None else "")
    trace = _TRACE_MEMO.get(key)
    if trace is not None:
        return trace
    from repro.experiments import common

    if spec == "small":
        trace = common.rm3d_small_trace(cache_dir)
    elif spec == "reference":
        trace = common.rm3d_reference_trace(cache_dir)
    else:
        raise ValueError(
            f"unknown trace spec {spec!r}; choose 'small' or 'reference'"
        )
    _TRACE_MEMO[key] = trace
    return trace


class Scenario:
    """One runnable configuration with a stable identity.

    Subclasses (or :class:`FunctionScenario` instances) provide
    ``run(ctx)`` returning a JSON-serializable document.  ``version`` is
    a per-scenario salt: bump it when the scenario's semantics change so
    cached results are invalidated without touching the global code
    salt.  ``requires`` names shared inputs (``"trace:small"``) the
    runner pre-warms before fanning out workers.
    """

    name: str = ""
    params: dict[str, Any]
    tags: frozenset[str] = frozenset()
    version: str = "1"
    requires: tuple[str, ...] = ()
    description: str = ""

    def __init__(
        self,
        name: str,
        params: dict[str, Any] | None = None,
        *,
        tags: Iterable[str] = (),
        version: str = "1",
        requires: Iterable[str] = (),
        description: str = "",
    ) -> None:
        if not name:
            raise ValueError("scenario name must be non-empty")
        self.name = name
        self.params = dict(params or {})
        self.tags = frozenset(tags)
        self.version = version
        self.requires = tuple(requires)
        self.description = description

    def run(self, ctx: ScenarioContext) -> Any:
        """Execute the scenario; must return JSON-serializable data."""
        raise NotImplementedError

    def render(self, result: Any) -> str:
        """Human-readable text for a result (JSON dump by default)."""
        return json.dumps(result, indent=2, sort_keys=True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.params!r})"


class FunctionScenario(Scenario):
    """A scenario defined by plain functions (the common case).

    Wraps ``fn(ctx) -> json-able`` and an optional ``render_fn(result)
    -> str``; every built-in experiment/ablation/chaos scenario is one
    of these.
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[ScenarioContext], Any],
        params: dict[str, Any] | None = None,
        *,
        render_fn: Callable[[Any], str] | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(name, params, **kwargs)
        self._fn = fn
        self._render_fn = render_fn

    def run(self, ctx: ScenarioContext) -> Any:
        """Call the wrapped function."""
        return self._fn(ctx)

    def render(self, result: Any) -> str:
        """Call the wrapped renderer (JSON dump when none was given)."""
        if self._render_fn is None:
            return super().render(result)
        return self._render_fn(result)


# -- the executor --------------------------------------------------------------


def run_identity(
    scenario: Scenario,
    overrides: dict[str, Any] | None = None,
    base_seed: int = 0,
) -> tuple[dict[str, Any], int, str]:
    """A run's ``(params, seed, key)``: the one place a run is identified.

    ``params`` is ``scenario.params`` updated with ``overrides`` (a fresh
    dict).  ``seed`` is the first 4 bytes of the SHA-256 of name,
    canonical params and ``base_seed``, so every (scenario, params, base
    seed) gets a stable, well-separated seed regardless of insertion
    order.  ``key`` is the SHA-256 of the code salt
    (:func:`~repro.sweep.cache.code_salt`), ``scenario.version``, name,
    canonical params and the derived seed: two runs share a result-cache
    entry exactly when they compute the same thing.
    """
    params = {**scenario.params, **(overrides or {})}
    canonical = canonical_params(params)
    digest = hashlib.sha256(
        f"{scenario.name}\n{canonical}\n{base_seed}".encode()
    ).digest()
    seed = int.from_bytes(digest[:4], "big")
    key = hashlib.sha256("\n".join([
        "repro-sweep", code_salt(), scenario.version, scenario.name,
        canonical, str(seed),
    ]).encode()).hexdigest()
    return params, seed, key


def execute_scenario(
    scenario: Scenario,
    params: dict[str, Any],
    seed: int,
    cache_dir: Path | None = None,
) -> Any:
    """Run ``scenario`` once with the identity from :func:`run_identity`;
    returns its result as plain JSON data (:func:`jsonify`).

    The run is scoped by :func:`~repro.partitioners.
    deterministic_partition_time`, so partition time is modeled whatever
    the caller's thread had set, and the setting is restored on exit.
    """
    ctx = ScenarioContext(params=dict(params), seed=seed, cache_dir=cache_dir)
    with deterministic_partition_time():
        return jsonify(scenario.run(ctx))


def import_scenario_modules(modules: Sequence[str]) -> None:
    """Import the modules that populate the scenario registry."""
    for module in modules:
        importlib.import_module(module)


# -- registry ------------------------------------------------------------------

_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario, *, replace: bool = False) -> Scenario:
    """Add ``scenario`` to the process-local registry; returns it.

    Duplicate names are rejected unless ``replace=True`` — silent
    shadowing of a registered configuration would corrupt cache
    identities.
    """
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def unregister(name: str) -> None:
    """Remove ``name`` from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by exact name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"scenario {name!r} is not registered; known: "
            f"{sorted(_REGISTRY) or '(none)'}"
        ) from None


def all_scenarios() -> list[Scenario]:
    """Every registered scenario, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def filter_scenarios(
    pattern: str | None = None, tags: Iterable[str] = ()
) -> list[Scenario]:
    """Registered scenarios matching ``pattern`` and all ``tags``.

    ``pattern`` matches by substring or :func:`fnmatch.fnmatch` glob;
    ``None`` matches everything.
    """
    want = frozenset(tags)
    out = []
    for scenario in all_scenarios():
        if want and not want <= scenario.tags:
            continue
        if pattern is not None:
            if pattern not in scenario.name and not fnmatch(
                scenario.name, pattern
            ):
                continue
        out.append(scenario)
    return out
