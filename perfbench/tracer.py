"""Outside-in layer tracing: wrappers around the program's public functions.

Nothing inside ``repro`` is changed.  :func:`install_adaptive` and
:func:`install_serving` replace each named function or method with a
wrapper that records, per span name, the number of calls, the total time
and the *self* time (total minus the time of wrapped calls nested inside
it, on the same thread).  Module
attributes are patched wherever the function was imported by name, so
``from repro.x import f`` call sites are traced too.

Span names are ``<layer>.<what>``; the per-layer metrics are derived
from them in :mod:`layers`.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Any, Callable

__all__ = ["Tracer", "install_adaptive", "install_serving"]


class Tracer:
    """Thread-safe per-span accumulator of calls, total and self time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: span -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        #: free-form counters (bytes written, ...)
        self.counts: dict[str, float] = {}

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(self, name: str, total: float, own: float) -> None:
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += total
            entry[2] += own

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the free-form counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def reset(self) -> None:
        """Forget everything recorded so far."""
        with self._lock:
            self.spans = {}
            self.counts = {}

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str],
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` timed under span ``name`` (a string, or a function of
        the call's arguments); ``after(result, args)`` runs untimed."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += total
                span = name if isinstance(name, str) else name(*args)
                self._add(span, total, total - children)
            if after is not None:
                after(result, args)
            return result

        return traced

    def calls(self, name: str) -> int:
        """Calls recorded under span ``name``."""
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def self_s(self, name: str) -> float:
        """Self seconds recorded under span ``name``."""
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        """Total (inclusive) seconds recorded under span ``name``."""
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready copy of everything recorded."""
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }

    @classmethod
    def from_snapshot(cls, doc: dict[str, Any]) -> "Tracer":
        """A tracer holding a snapshot taken in another process."""
        tracer = cls()
        tracer.spans = {k: list(v) for k, v in doc["spans"].items()}
        tracer.counts = dict(doc["counts"])
        return tracer


def _patch_function(fn: Callable, wrapper: Callable) -> None:
    """Replace ``fn`` in every loaded ``repro`` module that binds it."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)


def _patch_method(cls: type, attr: str, tracer: Tracer, name, after=None) -> None:
    setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, after))


def install_adaptive(tracer: Tracer) -> None:
    """Wrap the adaptive loop's layers: policy, core, units/SFC, load map,
    partitioners, partition evaluation, cost model and the simulator."""
    from repro.amr import workload
    from repro.core.meta_partitioner import MetaPartitioner
    from repro.execsim import costmodel
    from repro.execsim.reuse import UnitsReuseCache
    from repro.execsim.simulator import ExecutionSimulator
    from repro.partitioners import metrics, units
    from repro.partitioners.base import Partitioner
    from repro.policy import octant
    from repro.policy.kb import PolicyKnowledgeBase

    for fn, span in (
        (octant.classify_hierarchy, "policy.classify"),
        (workload.composite_load_map, "amr.load_map"),
        (workload.update_composite_load_map, "amr.load_map"),
        (units.build_units, "partitioners.units"),
        (units.units_from_map, "partitioners.units_build"),
        (units.rebuild_units, "partitioners.units_build"),
        (metrics.evaluate_partition, "partitioners.evaluate"),
        (costmodel.per_step_comm_times, "execsim.cost"),
    ):
        _patch_function(fn, tracer.wrap(fn, span))
    _patch_method(PolicyKnowledgeBase, "merged_action", tracer, "policy.lookup")
    _patch_method(MetaPartitioner, "decide", tracer, "core.decide")
    _patch_method(UnitsReuseCache, "units_for", tracer, "partitioners.units")
    _patch_method(
        Partitioner, "partition", tracer,
        lambda self, *a: f"partitioners.partition.{self.name}",
    )
    _patch_method(ExecutionSimulator, "run", tracer, "execsim.run")


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving path's layers: protocol, submission, the result
    cache and scenario execution (plus the adaptive-loop layers the
    scenarios run through)."""
    import repro.serve.jsonl  # noqa: F401 - binds parse_request/encode
    import repro.sweep.builtin  # noqa: F401 - scenario modules bind names
    from repro.serve import protocol
    from repro.serve.server import ScenarioServer
    from repro.sweep.cache import ResultCache
    from repro.sweep.scenario import FunctionScenario

    install_adaptive(tracer)
    _patch_function(protocol.parse_request,
                    tracer.wrap(protocol.parse_request, "serve.parse"))
    _patch_function(protocol.encode, tracer.wrap(protocol.encode, "serve.encode"))
    _patch_method(ScenarioServer, "submit", tracer, "serve.submit")
    _patch_method(ResultCache, "get", tracer, "sweep.cache_get")

    def put_bytes(path: Any, args: tuple) -> None:
        tracer.count("sweep.cache_put_bytes", path.stat().st_size)

    _patch_method(ResultCache, "put", tracer, "sweep.cache_put", put_bytes)
    _patch_method(FunctionScenario, "run", tracer, "serve.execute")
