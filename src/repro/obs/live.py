"""Online telemetry for long-running processes: the live plane.

Everything else in :mod:`repro.obs` is post-hoc — run reports, Chrome
traces and bench snapshots answer "what happened?" after a run ends.
This module answers "what is the process doing *right now?*" for the
serving runtime (:mod:`repro.serve`), the way grid performance-analysis
frameworks make continuous online monitoring a first-class subsystem:

- :func:`render_prometheus` — the standard text exposition format over a
  :class:`~repro.obs.metrics.MetricsRegistry` (counters as ``_total``,
  gauges, histograms as ``_bucket``/``_sum``/``_count`` with escaped
  labels), served by the ``metrics`` wire verb;
- :class:`SnapshotExporter` — a periodic JSONL exporter appending one
  metrics snapshot per interval (atomic single-write appends, a
  monotonic ``serve.uptime_seconds`` gauge refreshed each tick);
- :class:`SloTracker` — sliding-window service-level objectives per
  priority lane (request latency and shed rate against fixed targets)
  with classic multi-window burn-rate alerting, surfaced as
  :class:`~repro.obs.anomaly.Alert` records so the existing alert path
  (``obs.alerts``) carries them; its latency ring also gives the
  dashboard's per-lane quantiles;
- :class:`FlightRecorder` — a lock-cheap bounded ring of the last N
  serve events (admit/shed/dedup/dispatch/retry/commit/cancel), dumped
  to JSONL on shutdown, on crash, or on demand — enough for a
  postmortem without full tracing overhead;
- :class:`HealthStatus` — the liveness/readiness document behind the
  ``health`` wire verb;
- :func:`render_dashboard` — the terminal frame ``python -m repro top``
  refreshes from a running server's ``stats-stream``.

Every :class:`~repro.serve.server.ScenarioServer` runs the flight
recorder and the SLO tracker; the snapshot exporter thread starts only
when the server is given a ``snapshot_path``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.anomaly import Alert
from repro.obs.metrics import MetricsRegistry, nearest_rank
from repro.util.fileio import write_file

__all__ = [
    "render_prometheus",
    "prometheus_name",
    "escape_label_value",
    "SnapshotExporter",
    "SloTracker",
    "FlightRecorder",
    "HealthStatus",
    "render_dashboard",
]


# -- Prometheus text exposition ------------------------------------------------

#: the exposition content type (version 0.0.4 is the text format)
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK_FIRST = set("abcdefghijklmnopqrstuvwxyz"
                     "ABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_OK = _NAME_OK_FIRST | set("0123456789")


def prometheus_name(name: str) -> str:
    """``name`` sanitized to the metric-name charset ``[a-zA-Z_:][a-zA-Z0-9_:]*``.

    The registry's dotted names (``serve.dedup_hits``) become underscore
    names (``serve_dedup_hits``); any other illegal character is also
    mapped to ``_`` and a leading digit gets a ``_`` prefix.
    """
    out = "".join(c if c in _NAME_OK else "_" for c in name)
    if not out or out[0] not in _NAME_OK_FIRST:
        out = "_" + out
    return out


def escape_label_value(value: str) -> str:
    """``value`` with backslash, double-quote and newline escaped."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_str(labels: tuple[tuple[str, str], ...],
               extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    body = ",".join(
        f'{prometheus_name(k)}="{escape_label_value(str(v))}"'
        for k, v in pairs
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    """A float formatted the way Prometheus expects (no trailing noise)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition (format 0.0.4).

    Counters are suffixed ``_total`` per convention; histograms emit
    cumulative ``_bucket`` series (``le`` upper bounds plus ``+Inf``),
    ``_sum`` and ``_count``.  Output is sorted by metric name then label
    set, so identical registries render byte-identically.
    """
    lines: list[str] = []

    counters: dict[str, list] = {}
    for (name, labels), inst in sorted(registry._counters.items()):
        counters.setdefault(name, []).append((labels, inst.value))
    for name, rows in counters.items():
        pname = prometheus_name(name) + "_total"
        lines.append(f"# TYPE {pname} counter")
        for labels, value in rows:
            lines.append(f"{pname}{_label_str(labels)} {_fmt(value)}")

    gauges: dict[str, list] = {}
    for (name, labels), inst in sorted(registry._gauges.items()):
        gauges.setdefault(name, []).append((labels, inst.value))
    for name, rows in gauges.items():
        pname = prometheus_name(name)
        lines.append(f"# TYPE {pname} gauge")
        for labels, value in rows:
            lines.append(f"{pname}{_label_str(labels)} {_fmt(value)}")

    hists: dict[str, list] = {}
    for (name, labels), inst in sorted(registry._histograms.items()):
        hists.setdefault(name, []).append((labels, inst))
    for name, rows in hists.items():
        pname = prometheus_name(name)
        lines.append(f"# TYPE {pname} histogram")
        for labels, h in rows:
            cum = 0
            for bound, n in zip(h.bounds, h.buckets):
                cum += n
                lines.append(
                    f"{pname}_bucket"
                    f"{_label_str(labels, (('le', _fmt(bound)),))} {cum}"
                )
            cum += h.buckets[-1]
            lines.append(
                f"{pname}_bucket"
                f"{_label_str(labels, (('le', '+Inf'),))} {cum}"
            )
            lines.append(f"{pname}_sum{_label_str(labels)} {_fmt(h.total)}")
            lines.append(f"{pname}_count{_label_str(labels)} {h.count}")

    return "\n".join(lines) + "\n" if lines else ""


# -- periodic JSONL snapshot exporter ------------------------------------------


class SnapshotExporter:
    """Appends one JSONL metrics snapshot per interval to a file.

    Each record carries a wall timestamp, a monotonic ``uptime_seconds``
    (also refreshed into the registry's ``serve.uptime_seconds`` gauge so
    the exposition endpoint reports it too), the full registry snapshot
    and whatever the optional ``extra`` callable contributes (the server
    passes its ``stats()``).  Appends are a single buffered ``write`` of
    one ``\\n``-terminated line on a file opened in append mode — atomic
    for the line-sized records involved — so a crash can truncate at
    most the final line.  A final snapshot is flushed on :meth:`stop`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str | Path,
        *,
        interval_s: float = 5.0,
        extra: Callable[[], dict[str, Any]] | None = None,
        clock: Callable[[], float] = time.monotonic,
        wall_clock: Callable[[], float] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.path = Path(path)
        self.interval_s = interval_s
        self.extra = extra
        self.clock = clock
        #: the record timestamp source.  Defaults to wall time for
        #: human-readable snapshots; injecting one callable as both
        #: ``clock`` and ``wall_clock`` makes a single (possibly
        #: simulated) clock govern every field the exporter writes.
        self.wall_clock = wall_clock if wall_clock is not None else time.time
        self._epoch = clock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.snapshots_written = 0

    @property
    def uptime_seconds(self) -> float:
        """Monotonic seconds since the exporter was constructed."""
        return self.clock() - self._epoch

    def snapshot_once(self) -> dict[str, Any]:
        """Build, append and return one snapshot record."""
        uptime = self.uptime_seconds
        self.registry.gauge("serve.uptime_seconds").set(uptime)
        record: dict[str, Any] = {
            "t": self.wall_clock(),
            "uptime_seconds": uptime,
            "metrics": self.registry.snapshot(),
        }
        if self.extra is not None:
            try:
                record.update(self.extra())
            except Exception:  # noqa: BLE001 - exporter must not die mid-run
                pass
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record, sort_keys=True, default=str) + "\n"
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line)
        self.snapshots_written += 1
        return record

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.snapshot_once()

    def start(self) -> None:
        """Start the exporter thread (idempotent)."""
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="obs-snapshot-exporter", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and flush one final snapshot."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.snapshot_once()


# -- sliding-window SLO tracking -----------------------------------------------

#: latency objective: at most :data:`LATENCY_BUDGET` of requests may take
#: longer than :data:`LATENCY_TARGET_S` seconds
LATENCY_TARGET_S = 60.0
LATENCY_BUDGET = 0.05
#: shed objective: at most this fraction of admissions may be shed for
#: load (queue-full / shutting-down)
SHED_BUDGET = 0.05
#: event-count windows for burn-rate alerting: the short window (fast
#: signal) is the newest :data:`SHORT_WINDOW` entries of each lane's
#: :data:`LONG_WINDOW`-entry ring (sustained signal)
SHORT_WINDOW = 32
LONG_WINDOW = 256
#: burn rate (error rate / budget) at which both windows must be to alert
BURN_THRESHOLD = 2.0


class _LaneWindow:
    """One lane's rings: the newest latencies (seconds) and admission
    outcomes (``True`` = shed), plus lifetime totals."""

    __slots__ = ("latency", "shed", "requests", "violations", "sheds")

    def __init__(self) -> None:
        self.latency: deque[float] = deque(maxlen=LONG_WINDOW)
        self.shed: deque[bool] = deque(maxlen=LONG_WINDOW)
        self.requests = 0
        self.violations = 0
        self.sheds = 0


def _burns(errors: list[bool], budget: float) -> tuple[float, float]:
    """Short- and long-window burn rates of one ring's error flags."""
    if not errors:
        return 0.0, 0.0
    short = errors[-SHORT_WINDOW:]
    return (sum(short) / len(short) / budget,
            sum(errors) / len(errors) / budget)


class SloTracker:
    """Per-priority-lane SLOs with multi-window burn-rate alerting.

    Two objectives per lane, both expressed as error budgets:

    - **latency** — at most :data:`LATENCY_BUDGET` of requests may exceed
      :data:`LATENCY_TARGET_S` (5% over 60 s ≈ "p95 under 60 s");
    - **shedding** — at most :data:`SHED_BUDGET` of admission decisions
      may shed for load (``queue-full`` / ``shutting-down``;
      unknown-scenario refusals are client errors, not load, and are
      not recorded).

    Burn rate is the observed error rate divided by the budget; following
    the multi-window pattern, a lane alerts only when *both* the short
    window (fast signal) and the long window (sustained signal) burn
    beyond :data:`BURN_THRESHOLD` — a brief spike that the long window
    has already absorbed stays quiet.  Windows are event-counted rings
    (deterministic under test, no clock dependence).  The latency ring
    holds the request latencies themselves, so it also answers the
    dashboard's per-lane quantiles (:meth:`latency`).

    :meth:`alerts` maps firing burns onto the existing
    :class:`~repro.obs.anomaly.Alert` record: ``series`` is
    ``slo.<lane>.latency`` / ``slo.<lane>.shed``, ``value`` the short
    burn, ``mean`` the long burn, ``std`` the error budget and
    ``zscore`` the short burn in units of the threshold.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lanes: dict[str, _LaneWindow] = {
            lane: _LaneWindow() for lane in ("high", "normal", "low")
        }

    def _lane(self, lane: str) -> _LaneWindow:
        win = self._lanes.get(lane)
        if win is None:
            with self._lock:
                win = self._lanes.setdefault(lane, _LaneWindow())
        return win

    def record_latency(self, lane: str, seconds: float) -> None:
        """Record one served request's end-to-end latency."""
        win = self._lane(lane)
        with self._lock:
            win.latency.append(seconds)
            win.requests += 1
            if seconds > LATENCY_TARGET_S:
                win.violations += 1

    def record_admission(self, lane: str, *, shed: bool) -> None:
        """Record one admission decision (``shed`` = refused for load)."""
        win = self._lane(lane)
        with self._lock:
            win.shed.append(shed)
            if shed:
                win.sheds += 1

    @staticmethod
    def _lane_burns(win: _LaneWindow) -> dict[str, float]:
        lat_short, lat_long = _burns(
            [s > LATENCY_TARGET_S for s in win.latency], LATENCY_BUDGET
        )
        shed_short, shed_long = _burns(list(win.shed), SHED_BUDGET)
        return {
            "latency_burn_short": lat_short,
            "latency_burn_long": lat_long,
            "shed_burn_short": shed_short,
            "shed_burn_long": shed_long,
        }

    def latency(self) -> dict[str, dict[str, float]]:
        """Per-lane ``count`` and nearest-rank ``p50``/``p95``/``p99``
        of the latency ring (the last :data:`LONG_WINDOW` requests)."""
        with self._lock:
            rings = {lane: sorted(win.latency)
                     for lane, win in sorted(self._lanes.items())}
        return {
            lane: {
                "count": len(ring),
                "p50": nearest_rank(ring, 0.50),
                "p95": nearest_rank(ring, 0.95),
                "p99": nearest_rank(ring, 0.99),
            }
            for lane, ring in rings.items()
        }

    def summary(self) -> dict[str, Any]:
        """Per-lane objective state as one JSON-ready document."""
        with self._lock:
            lanes: dict[str, Any] = {}
            for lane, win in sorted(self._lanes.items()):
                burns = self._lane_burns(win)
                lanes[lane] = {
                    "requests": win.requests,
                    "violations": win.violations,
                    "sheds": win.sheds,
                    **burns,
                    "latency_alerting": (
                        burns["latency_burn_short"] >= BURN_THRESHOLD
                        and burns["latency_burn_long"] >= BURN_THRESHOLD
                    ),
                    "shed_alerting": (
                        burns["shed_burn_short"] >= BURN_THRESHOLD
                        and burns["shed_burn_long"] >= BURN_THRESHOLD
                    ),
                }
        return {
            "objectives": {
                "latency_target_s": LATENCY_TARGET_S,
                "latency_budget": LATENCY_BUDGET,
                "shed_budget": SHED_BUDGET,
                "short_window": SHORT_WINDOW,
                "long_window": LONG_WINDOW,
                "burn_threshold": BURN_THRESHOLD,
            },
            "lanes": lanes,
        }

    def alerts(self) -> list[Alert]:
        """The currently firing burn-rate alerts as anomaly records."""
        out: list[Alert] = []
        with self._lock:
            for lane, win in sorted(self._lanes.items()):
                burns = self._lane_burns(win)
                for kind, budget in (("latency", LATENCY_BUDGET),
                                     ("shed", SHED_BUDGET)):
                    short = burns[f"{kind}_burn_short"]
                    long_ = burns[f"{kind}_burn_long"]
                    if short >= BURN_THRESHOLD and long_ >= BURN_THRESHOLD:
                        out.append(Alert(
                            series=f"slo.{lane}.{kind}",
                            index=win.requests,
                            value=short,
                            zscore=short / BURN_THRESHOLD,
                            mean=long_,
                            std=budget,
                        ))
        return out


# -- flight recorder -----------------------------------------------------------

#: ring capacity of the flight recorder (last N serve events)
FLIGHT_CAPACITY = 256


class FlightRecorder:
    """A bounded ring of the last ``capacity`` serve events.

    Appends ride a ``deque(maxlen=...)`` — the append itself is the ring
    eviction, with no lock on the hot path (CPython deque appends are
    atomic).  ``recorded`` is a plain counter and may undercount by a
    few under heavy thread contention; the ring content never does.
    """

    def __init__(
        self,
        capacity: int = FLIGHT_CAPACITY,
        *,
        wall_clock: Callable[[], float] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: timestamp source for the dump header (event ``t`` values are
        #: supplied by the caller); injectable so a simulated run's dump
        #: carries virtual time throughout
        self.wall_clock = wall_clock if wall_clock is not None else time.time
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.recorded = 0

    def record(self, kind: str, t: float, **attrs: Any) -> None:
        """Append one event record (oldest is evicted at capacity)."""
        self._ring.append({"kind": kind, "t": t, **attrs})
        self.recorded += 1

    def __len__(self) -> int:
        return len(self._ring)

    def tail(self, n: int | None = None) -> list[dict[str, Any]]:
        """The most recent ``n`` events (all of them when ``None``)."""
        events = list(self._ring)
        if n is not None and n >= 0:
            events = events[len(events) - min(n, len(events)):]
        return events

    def dump(self, path: str | Path) -> int:
        """Write the ring to ``path`` as JSONL; returns the line count.

        The dump is written whole through
        :func:`~repro.util.fileio.write_file` (fsync, then an atomic
        rename), so a reader never sees a half-written postmortem.
        """
        events = self.tail()
        header = {
            "kind": "flight-recorder",
            "t": self.wall_clock(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "dumped": len(events),
        }
        payload = "".join(
            json.dumps(rec, sort_keys=True, default=str) + "\n"
            for rec in (header, *events)
        )
        write_file(path, payload.encode("utf-8"))
        return len(events)


# -- health --------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class HealthStatus:
    """Liveness + readiness for the ``health`` wire verb.

    ``live`` means the process answers at all (a served response implies
    it); ``ready`` means the server can usefully accept work: admission
    open, worker pool started, and the queue below capacity.  ``checks``
    carries the individual signals (queue depth vs capacity, worker-pool
    state, seconds since the last terminal commit) so an operator can
    see *which* gate failed.
    """

    live: bool
    ready: bool
    checks: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (the wire shape)."""
        return {"live": self.live, "ready": self.ready,
                "checks": dict(self.checks)}


# -- terminal dashboard (python -m repro top) ----------------------------------


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def render_dashboard(
    snapshot: dict[str, Any],
    previous: dict[str, Any] | None = None,
    *,
    width: int = 72,
) -> str:
    """One ``repro top`` frame from a ``stats-stream`` tick document.

    ``snapshot`` is a :meth:`ScenarioServer.live_snapshot` document;
    ``previous`` (the prior tick) enables the throughput delta.  Pure
    string rendering — no terminal control, so it is testable and the
    CLI owns screen clearing.
    """
    stats = snapshot.get("stats", {})
    counters = stats.get("counters", {})
    health = snapshot.get("health", {})
    checks = health.get("checks", {})
    lines: list[str] = []

    uptime = snapshot.get("uptime_seconds", 0.0)
    state = "READY" if health.get("ready") else (
        "LIVE" if health.get("live") else "DOWN")
    lines.append(
        f"repro top — {state}  up {uptime:8.1f}s  "
        f"workers {checks.get('workers_alive', '?')}/{checks.get('workers', '?')}"
    )
    lines.append("=" * width)

    depth = stats.get("queue_depth", 0)
    cap = stats.get("queue_capacity", 1) or 1
    lines.append(
        f"queue {depth:>4}/{cap:<4} [{_bar(depth / cap)}]  "
        f"inflight {stats.get('inflight', 0)}"
    )
    by_prio = stats.get("queue_by_priority", {})
    if by_prio:
        lanes = "  ".join(f"{p}:{n}" for p, n in by_prio.items())
        lines.append(f"lanes  {lanes}")

    submitted = counters.get("submitted", 0)
    completed = counters.get("completed", 0)
    dedup = counters.get("dedup_hits", 0)
    cache = counters.get("cache_hits", 0)
    shed = counters.get("shed", 0)
    denom = max(submitted, 1)
    lines.append(
        f"reqs   submitted {submitted}  completed {completed}  "
        f"shed {shed}  failed {counters.get('failed', 0)}  "
        f"timeout {counters.get('timeout', 0)}"
    )
    lines.append(
        f"reuse  dedup {dedup} ({100.0 * dedup / denom:.0f}%)  "
        f"cache {cache} ({100.0 * cache / denom:.0f}%)"
    )
    if previous is not None:
        prev_done = previous.get("stats", {}).get("counters", {}) \
            .get("completed", 0)
        dt = max(
            snapshot.get("uptime_seconds", 0.0)
            - previous.get("uptime_seconds", 0.0),
            1e-9,
        )
        lines.append(f"rate   {max(completed - prev_done, 0) / dt:.2f} jobs/s")

    latency = snapshot.get("latency", {})
    if latency:
        lines.append("-" * width)
        lines.append(f"{'lane':<8}{'n':>6}{'p50':>10}{'p95':>10}{'p99':>10}")
        for lane, summary in sorted(latency.items()):
            lines.append(
                f"{lane:<8}{summary.get('count', 0):>6}"
                f"{summary.get('p50', 0.0):>10.3f}"
                f"{summary.get('p95', 0.0):>10.3f}"
                f"{summary.get('p99', 0.0):>10.3f}"
            )

    slo = snapshot.get("slo")
    if slo:
        lines.append("-" * width)
        lines.append("slo    lane        latency burn (s/l)   shed burn (s/l)")
        for lane, doc in sorted(slo.get("lanes", {}).items()):
            mark = "!" if (doc.get("latency_alerting")
                           or doc.get("shed_alerting")) else " "
            lines.append(
                f"  {mark}    {lane:<10}  "
                f"{doc.get('latency_burn_short', 0.0):>6.2f}/"
                f"{doc.get('latency_burn_long', 0.0):<6.2f}      "
                f"{doc.get('shed_burn_short', 0.0):>6.2f}/"
                f"{doc.get('shed_burn_long', 0.0):<6.2f}"
            )

    flight = snapshot.get("flight_tail", [])
    if flight:
        lines.append("-" * width)
        lines.append(f"flight recorder (last {len(flight)}):")
        for rec in flight:
            job = rec.get("job", "?")
            scenario = rec.get("scenario", "")
            extras = " ".join(
                f"{k}={v}" for k, v in sorted(rec.items())
                if k not in ("kind", "t", "job", "scenario")
            )
            lines.append(
                f"  {rec.get('t', 0.0):>12.3f}  {rec.get('kind', '?'):<16}"
                f"{job:<10}{scenario:<18}{extras}"
            )

    return "\n".join(lines)
