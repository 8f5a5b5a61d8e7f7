"""Observability for the Pragma reproduction pipeline.

The paper argues runtime management must be measurement-driven; this
package turns the same lens on the reproduction itself.  A collection
window holds one :class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.tracing.Tracer` and one
:class:`~repro.obs.timeline.TimelineRecorder`.  Outside a window the
sinks are zero-cost null implementations, so instrumented hot paths (the
execution simulator, the meta-partitioner, the CATALINA message center,
the resource monitor) pay nothing.  Windows are context-local: each
thread sees only the window it opened itself.

Usage::

    from repro import obs

    with obs.collect() as window:        # enable for a scoped window
        report = runtime.run_adaptive(trace)
    window.registry.counter_value("execsim.intervals")
    window.tracer.totals_by_path()
    window.timeline.summary()

Instrumented call sites go through the module-level helpers
(:func:`counter`, :func:`gauge`, :func:`histogram`, :func:`span`,
:func:`handler_span`, :func:`get_timeline`), which dispatch to the
current context's registry, tracer and timeline.
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
    NULL_FLIGHT,
    FlightRecorder,
    HealthStatus,
    NullFlightRecorder,
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
    NullRegistry,
)
from repro.obs.timeline import NullTimeline, StepSample, TimelineRecorder
from repro.obs.tracing import _NULL_SPAN, FlowRecord, NullTracer, SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Tracer",
    "NullTracer",
    "SpanRecord",
    "FlowRecord",
    "StepSample",
    "TimelineRecorder",
    "NullTimeline",
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
    "NullFlightRecorder",
    "NULL_FLIGHT",
    "HealthStatus",
    "get_registry",
    "get_tracer",
    "get_timeline",
    "enabled",
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

_NULL_SINKS = (NullRegistry(), NullTracer(), NullTimeline())

#: the ``(registry, tracer, timeline)`` triple the helpers write to.
#: Context-local, so a window opened by one thread (or task) is never
#: seen by another; every new thread starts with the null sinks.
_sinks: ContextVar[tuple[MetricsRegistry, Tracer, TimelineRecorder]] = (
    ContextVar("repro_obs_sinks", default=_NULL_SINKS)
)


def get_registry() -> MetricsRegistry:
    """The current context's metrics registry (null when disabled)."""
    return _sinks.get()[0]


def get_tracer() -> Tracer:
    """The current context's tracer (null when disabled)."""
    return _sinks.get()[1]


def get_timeline() -> TimelineRecorder:
    """The current context's timeline recorder (null when disabled)."""
    return _sinks.get()[2]


def enabled() -> bool:
    """True when a collection window is open in the current context."""
    return _sinks.get()[0].enabled


class _CollectionWindow:
    """A scoped set of real sinks; keeps them for inspection after exit."""

    __slots__ = ("registry", "tracer", "timeline", "_token")

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.timeline = TimelineRecorder()

    def __enter__(self) -> _CollectionWindow:
        self._token = _sinks.set((self.registry, self.tracer, self.timeline))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _sinks.reset(self._token)


def collect() -> _CollectionWindow:
    """Context manager opening a fresh collection window.

    The window's sinks are installed in the current context only; on
    exit the sinks that were current before (usually the null defaults)
    come back.  The window keeps its ``registry``, ``tracer`` and
    ``timeline`` for inspection and export.
    """
    return _CollectionWindow()


# -- instrumentation helpers (what call sites import) -------------------------
#
# With no window open a helper costs one ContextVar.get() plus an
# identity check, and returns the shared null instrument or span: no
# registry dispatch, no allocation beyond the call's own arguments.


def counter(name: str, **labels: object) -> Counter:
    """Counter from the installed registry (no-op when disabled)."""
    sinks = _sinks.get()
    if sinks is _NULL_SINKS:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return sinks[0].counter(name, **labels)


def gauge(name: str, **labels: object) -> Gauge:
    """Gauge from the installed registry (no-op when disabled)."""
    sinks = _sinks.get()
    if sinks is _NULL_SINKS:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return sinks[0].gauge(name, **labels)


def histogram(
    name: str, window: int | None = None, **labels: object
) -> Histogram:
    """Histogram from the installed registry (no-op when disabled).

    ``window`` selects the sliding-window mode when the instrument is
    first created (see :class:`~repro.obs.metrics.Histogram`).
    """
    sinks = _sinks.get()
    if sinks is _NULL_SINKS:
        return _NULL_INSTRUMENT  # type: ignore[return-value]
    return sinks[0].histogram(name, window, **labels)


def span(name: str, **attrs: object):
    """Span context manager from the installed tracer (no-op when disabled)."""
    sinks = _sinks.get()
    if sinks is _NULL_SINKS:
        return _NULL_SPAN
    return sinks[1].span(name, **attrs)


def handler_span(name: str, message, **attrs: object):
    """Span for handling ``message``, consuming its causal flow context.

    ``message`` is anything with an optional ``trace_ctx`` attribute (a
    flow id stamped by the message center at send time); when present,
    the tracer records the flow's receiving endpoint inside the handler
    slice, so trace viewers draw the send → handle arrow.  No-op when
    tracing is disabled.
    """
    sinks = _sinks.get()
    if sinks is _NULL_SINKS:
        return _NULL_SPAN
    return sinks[1].handler_span(
        name, getattr(message, "trace_ctx", None), **attrs
    )
