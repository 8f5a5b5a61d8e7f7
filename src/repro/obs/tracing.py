"""Lightweight span tracer: nested wall-clock timings plus causal flows.

``with tracer.span("partition", partitioner="SFC"):`` times a region with
``time.perf_counter`` and records it as a :class:`SpanRecord` carrying its
slash-joined path ("execsim.run/interval/partition"), depth, offset from
the tracer's epoch, duration and attributes.  Spans nest via a per-thread
stack (``threading.local``), so concurrent threads — the process-pool
collector, agent soaks driven from worker threads — cannot corrupt each
other's paths.  Each span also gets a process-unique ``sid`` and its
parent's ``parent`` sid, so exporters can rebuild the tree explicitly
(the Chrome trace-event exporter in :mod:`repro.obs.chrome` does).

Causality across the CATALINA message network is captured with *flow
events*: a sender calls :meth:`Tracer.new_flow` to mint a flow id, stamps
it on the message, and records :meth:`Tracer.flow_start` inside its send
span; the handler records :meth:`Tracer.flow_end` inside its handling
span.  The pair exports as Chrome ``s``/``f`` flow events, drawing an
arrow from the send slice to the handler slice in Perfetto.

A span that exits via an exception records ``error: true`` and the
exception type in its attributes — the exception itself propagates
unchanged, and the per-thread stack still unwinds.

Outside a collection window there is no tracer: :func:`repro.obs.span`
returns one shared context manager whose ``__enter__``/``__exit__`` do
nothing, and a sender mints no flow id.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = ["SpanRecord", "FlowRecord", "Tracer"]


@dataclass(slots=True)
class SpanRecord:
    """One finished span."""

    name: str
    path: str
    depth: int
    start: float
    duration: float
    attrs: dict = field(default_factory=dict)
    #: process-unique span id (1-based; 0 = none)
    sid: int = 0
    #: sid of the enclosing span (0 = root)
    parent: int = 0
    #: small per-thread track index (0 = the first thread seen)
    tid: int = 0

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "name": self.name,
            "path": self.path,
            "depth": self.depth,
            "start_s": self.start,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
            "sid": self.sid,
            "parent": self.parent,
            "tid": self.tid,
        }


@dataclass(frozen=True, slots=True)
class FlowRecord:
    """One endpoint of a causal flow (a message hop).

    ``phase`` is ``"s"`` at the producer and ``"f"`` at the consumer —
    the Chrome trace-event flow phases.  ``sid`` is the span the endpoint
    was recorded inside (its slice in the trace view).
    """

    id: int
    phase: str
    t: float
    tid: int
    sid: int

    def as_dict(self) -> dict:
        """JSON-ready representation."""
        return {
            "id": self.id,
            "phase": self.phase,
            "t_s": self.t,
            "tid": self.tid,
            "sid": self.sid,
        }


class _Span:
    """Context manager timing one region and appending its record."""

    __slots__ = ("_tracer", "name", "attrs", "_path", "_depth", "_t0",
                 "_sid", "_parent", "_tid")

    def __init__(self, tracer: Tracer, name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> _Span:
        tracer = self._tracer
        stack = tracer._thread_stack()
        if stack:
            parent_path, parent_sid = stack[-1]
            self._path = f"{parent_path}/{self.name}"
            self._parent = parent_sid
        else:
            self._path = self.name
            self._parent = 0
        self._depth = len(stack)
        self._sid = next(tracer._sids)
        self._tid = tracer._thread_tid()
        stack.append((self._path, self._sid))
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        self._tracer._thread_stack().pop()
        attrs = self.attrs
        if exc_type is not None:
            # Record the failure without swallowing it: the exception
            # propagates (we return None) and the stack above unwound.
            attrs = dict(attrs)
            attrs["error"] = True
            attrs["error_type"] = exc_type.__name__
        self._tracer.records.append(
            SpanRecord(
                name=self.name,
                path=self._path,
                depth=self._depth,
                start=self._t0 - self._tracer.epoch,
                duration=end - self._t0,
                attrs=attrs,
                sid=self._sid,
                parent=self._parent,
                tid=self._tid,
            )
        )


class _FlowSpan:
    """A span that records a flow-end on entry (message-handler spans)."""

    __slots__ = ("_span", "_flow_id")

    def __init__(self, span: _Span, flow_id: int | None) -> None:
        self._span = span
        self._flow_id = flow_id

    def __enter__(self) -> _Span:
        span = self._span.__enter__()
        if self._flow_id:
            span._tracer.flow_end(self._flow_id)
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        return self._span.__exit__(exc_type, exc, tb)


class Tracer:
    """Collects nested wall-clock spans and causal flows."""

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.records: list[SpanRecord] = []
        self.flows: list[FlowRecord] = []
        self._sids = itertools.count(1)
        self._flow_ids = itertools.count(1)
        self._local = threading.local()
        self._tids: dict[int, int] = {}
        self._tid_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------------

    def _thread_stack(self) -> list[tuple[str, int]]:
        """This thread's span stack (created on first use)."""
        try:
            return self._local.stack
        except AttributeError:
            stack: list[tuple[str, int]] = []
            self._local.stack = stack
            return stack

    def _thread_tid(self) -> int:
        """Small stable track index for the calling thread."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    # -- spans ----------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _Span:
        """A context manager timing ``name`` under the current span."""
        return _Span(self, name, attrs)

    def handler_span(
        self, name: str, flow_id: int | None, **attrs: object
    ) -> _FlowSpan:
        """A span that consumes ``flow_id`` (records the flow-end) on entry.

        Message handlers use this so the flow arrow lands inside their
        handling slice; ``flow_id`` of ``None``/``0`` records no flow.
        """
        return _FlowSpan(_Span(self, name, attrs), flow_id)

    # -- flows ----------------------------------------------------------------

    def new_flow(self) -> int:
        """Mint a process-unique flow id (stamped onto a message)."""
        return next(self._flow_ids)

    def _record_flow(self, flow_id: int, phase: str) -> None:
        stack = self._thread_stack()
        sid = stack[-1][1] if stack else 0
        self.flows.append(
            FlowRecord(
                id=flow_id,
                phase=phase,
                t=time.perf_counter() - self.epoch,
                tid=self._thread_tid(),
                sid=sid,
            )
        )

    def flow_start(self, flow_id: int) -> None:
        """Record the producing endpoint of ``flow_id`` (inside a span)."""
        if flow_id:
            self._record_flow(flow_id, "s")

    def flow_end(self, flow_id: int) -> None:
        """Record the consuming endpoint of ``flow_id`` (inside a span)."""
        if flow_id:
            self._record_flow(flow_id, "f")

    # -- imports (merging worker traces) ---------------------------------------

    def import_spans(
        self,
        span_dicts: list[dict],
        *,
        prefix: str = "",
        offset: float = 0.0,
    ) -> None:
        """Merge spans exported by another tracer (a sweep worker).

        ``span_dicts`` is the other tracer's :meth:`to_dicts` output;
        paths are re-rooted under ``prefix`` and starts shifted by
        ``offset`` (seconds relative to *this* tracer's epoch).  Imported
        spans land on a fresh track (tid) per call so each worker renders
        as its own lane, and get fresh sids so they never collide with
        local spans.
        """
        if not span_dicts:
            return
        with self._tid_lock:
            tid = len(self._tids)
            self._tids[-(tid + 1)] = tid  # reserve a synthetic track
        prefix_depth = prefix.count("/") + 1 if prefix else 0
        sid_map: dict[int, int] = {}
        for d in span_dicts:
            sid_map[d.get("sid", 0)] = next(self._sids)
        for d in span_dicts:
            path = f"{prefix}/{d['path']}" if prefix else d["path"]
            self.records.append(
                SpanRecord(
                    name=d["name"],
                    path=path,
                    depth=d["depth"] + prefix_depth,
                    start=d["start_s"] + offset,
                    duration=d["duration_s"],
                    attrs=dict(d.get("attrs", {})),
                    sid=sid_map.get(d.get("sid", 0), 0),
                    parent=sid_map.get(d.get("parent", 0), 0),
                    tid=tid,
                )
            )

    # -- views ----------------------------------------------------------------

    def totals_by_path(self) -> dict[str, float]:
        """Summed duration per span path (the profile view)."""
        out: dict[str, float] = {}
        for r in self.records:
            out[r.path] = out.get(r.path, 0.0) + r.duration
        return out

    def counts_by_path(self) -> dict[str, int]:
        """Number of spans recorded per path."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.path] = out.get(r.path, 0) + 1
        return out

    def to_dicts(self) -> list[dict]:
        """Every span as a plain dict, in completion order."""
        return [r.as_dict() for r in self.records]

    def reset(self) -> None:
        """Drop recorded spans/flows and restart the epoch."""
        self.records.clear()
        self.flows.clear()
        self._local = threading.local()
        self.epoch = time.perf_counter()


class _NullSpan:
    """Shared do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()
