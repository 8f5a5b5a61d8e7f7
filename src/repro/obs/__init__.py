"""Observability for the Pragma reproduction pipeline.

The paper argues runtime management must be measurement-driven; this
package turns the same lens on the reproduction itself.  A collection
window holds one :class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.tracing.Tracer` and one
:class:`~repro.obs.timeline.TimelineRecorder`.  Outside a window there
is no sink at all: :func:`current` answers ``None`` and the helpers hand
out one shared no-op instrument or span, so instrumented hot paths (the
execution simulator, the meta-partitioner, the CATALINA message center,
the resource monitor) pay one context lookup.  Windows are
context-local: each thread sees only the window it opened itself.

Usage::

    from repro import obs

    with obs.collect() as window:        # enable for a scoped window
        report = runtime.run_adaptive(trace)
    window.timeline.samples          # one StepRecord per regrid interval
    window.registry.counter_value("meta.switches")
    window.tracer.totals_by_path()
    window.timeline.summary()

Instrumented call sites go through the module-level helpers
(:func:`counter`, :func:`gauge`, :func:`histogram`, :func:`span`,
:func:`handler_span`).  A call site that needs a sink itself (a timeline
event, a flow id) writes ``w = obs.current()`` and then
``if w is not None:``.
"""

from __future__ import annotations

from contextvars import ContextVar

from repro.obs.anomaly import Alert, EwmaDetector, detect_alerts, detect_series
from repro.obs.benchdiff import (
    BenchDiff,
    LeafDiff,
    ToleranceRule,
    diff_documents,
    diff_files,
    flatten_document,
)
from repro.obs.chrome import chrome_trace_events, collect_trace
from repro.obs.export import export_json, export_jsonl, observability_snapshot
from repro.obs.live import (
    FlightRecorder,
    HealthStatus,
    SloTracker,
    SnapshotExporter,
    render_dashboard,
    render_prometheus,
)
from repro.obs.metrics import (
    _NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracing import _NULL_SPAN, FlowRecord, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "SpanRecord",
    "FlowRecord",
    "TimelineRecorder",
    "Alert",
    "EwmaDetector",
    "detect_series",
    "detect_alerts",
    "BenchDiff",
    "LeafDiff",
    "ToleranceRule",
    "flatten_document",
    "diff_documents",
    "diff_files",
    "chrome_trace_events",
    "collect_trace",
    "render_prometheus",
    "render_dashboard",
    "SnapshotExporter",
    "SloTracker",
    "FlightRecorder",
    "HealthStatus",
    "current",
    "collect",
    "counter",
    "gauge",
    "histogram",
    "span",
    "handler_span",
    "export_json",
    "export_jsonl",
    "observability_snapshot",
]


class _CollectionWindow:
    """A scoped set of real sinks; keeps them for inspection after exit."""

    __slots__ = ("registry", "tracer", "timeline", "_token")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.timeline = TimelineRecorder()

    def __enter__(self) -> _CollectionWindow:
        self._token = _window.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _window.reset(self._token)


#: the open collection window, or ``None`` outside one.  Context-local,
#: so a window opened by one thread (or task) is never seen by another;
#: every new thread starts with none.
_window: ContextVar[_CollectionWindow | None] = ContextVar(
    "repro_obs_window", default=None
)


def current() -> _CollectionWindow | None:
    """The collection window open in the current context, or ``None``."""
    return _window.get()


def collect() -> _CollectionWindow:
    """Context manager opening a fresh collection window.

    The window is installed in the current context only; on exit the
    window that was current before (usually none) comes back.  The
    window keeps its ``registry``, ``tracer`` and ``timeline`` for
    inspection and export.
    """
    return _CollectionWindow()


# -- instrumentation helpers (what call sites import) -------------------------
#
# With no window open a helper costs one ContextVar.get() plus a None
# check, and returns the shared null instrument or span: no registry
# dispatch, no allocation beyond the call's own arguments.


def counter(name: str, **labels: object) -> Counter:
    """Counter from the installed registry (no-op when disabled)."""
    w = _window.get()
    if w is None:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return w.registry.counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    """Gauge from the installed registry (no-op when disabled)."""
    w = _window.get()
    if w is None:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return w.registry.gauge(name, **labels)


def histogram(name: str, **labels: object) -> Histogram:
    """Histogram from the installed registry (no-op when disabled)."""
    w = _window.get()
    if w is None:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return w.registry.histogram(name, **labels)


def span(name: str, **attrs: object):
    """Span context manager from the installed tracer (no-op when disabled)."""
    w = _window.get()
    if w is None:
        return _NULL_SPAN
    return w.tracer.span(name, **attrs)


def handler_span(name: str, message, **attrs: object):
    """Span for handling ``message``, consuming its causal flow context.

    ``message`` is anything with an optional ``trace_ctx`` attribute (a
    flow id stamped by the message center at send time); when present,
    the tracer records the flow's receiving endpoint inside the handler
    slice, so trace viewers draw the send → handle arrow.  No-op when
    tracing is disabled.
    """
    w = _window.get()
    if w is None:
        return _NULL_SPAN
    return w.tracer.handler_span(
        name, getattr(message, "trace_ctx", None), **attrs
    )
