"""Chrome trace-event (Perfetto) export of a tracer's spans and flows.

:func:`chrome_trace_events` turns a :class:`~repro.obs.tracing.Tracer`
into the JSON object format the Chrome trace-event specification defines
and Perfetto (https://ui.perfetto.dev) loads directly: every span becomes
one complete ``"X"`` event (microsecond ``ts``/``dur``, per-thread
``tid`` so nesting stays well-formed), and every recorded flow becomes an
``"s"``/``"f"`` pair bound to the emitting span's slice — Perfetto draws
the arrow from a MessageCenter send to the ADM/CA handler that consumed
the message.

:func:`collect_trace` is the function behind ``python -m repro trace``:
it drives a reduced quickstart scenario (trace replay + the event-driven
online run, so the agent network sees real traffic) under a collection
window and returns the Chrome document.
"""

from __future__ import annotations

__all__ = ["chrome_trace_events", "collect_trace"]


def _jsonable(value: object) -> object:
    """Attribute values as JSON scalars (repr for anything exotic)."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def chrome_trace_events(tracer, *, process_name: str = "repro") -> dict:
    """The tracer's spans + flows as a Chrome trace-event JSON object.

    Events are sorted by timestamp (monotonic ``ts``); flow endpoints
    sort after the ``X`` event opening at the same microsecond so they
    always land inside their enclosing slice.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for r in tracer.records:
        events.append(
            {
                "name": r.name,
                "cat": "span",
                "ph": "X",
                "ts": round(r.start * 1e6, 3),
                # Zero-duration slices are dropped by some viewers; floor
                # at one nanosecond.
                "dur": max(round(r.duration * 1e6, 3), 0.001),
                "pid": 0,
                "tid": r.tid,
                "args": {
                    "path": r.path,
                    "sid": r.sid,
                    "parent": r.parent,
                    **{k: _jsonable(v) for k, v in r.attrs.items()},
                },
            }
        )
    for f in tracer.flows:
        ev = {
            "name": "message",
            "cat": "flow",
            "ph": f.phase,
            "id": f.id,
            "ts": round(f.t * 1e6, 3),
            "pid": 0,
            "tid": f.tid,
        }
        if f.phase == "f":
            # Bind the arrowhead to the enclosing (handler) slice.
            ev["bp"] = "e"
        events.append(ev)
    # Metadata first, then strictly by ts; X before flow endpoints at the
    # same instant so the flow is enclosed.
    order = {"M": 0, "X": 1, "s": 2, "f": 2}
    events.sort(key=lambda e: (e.get("ts", -1.0), order.get(e["ph"], 3)))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "python -m repro trace"},
    }


def _run_agent_network() -> None:
    """A small CATALINA control-network run on a failing cluster.

    One node fails mid-run, so the CAs publish failure events, the ADM
    consolidates them and directs migrations, and the CAs acknowledge —
    every hop through the message center carries a causal flow, which is
    exactly what the trace export is meant to show.
    """
    from repro.agents import ManagementComputingSystem, ManagementEditor
    from repro.gridsys import FailureSchedule, sp2_blue_horizon

    cluster = sp2_blue_horizon(4)
    cluster.failures.events.extend(
        FailureSchedule.poisson(
            num_nodes=cluster.num_nodes, horizon=400.0,
            mtbf=150.0, mttr=60.0, seed=7,
        ).events
    )
    spec = ManagementEditor("trace-demo")
    for i in range(3):
        spec.add_component(f"c{i}", 2e8)
    spec = spec.require("performance", 1.0).build()
    mcs = ManagementComputingSystem(cluster)
    env = mcs.build_environment(spec)
    env.run(600.0)


def collect_trace(
    *,
    num_coarse_steps: int = 48,
    online_steps: int = 24,
    timeline_jsonl: str | None = None,
) -> dict:
    """Run the reduced quickstart under tracing; returns the Chrome doc.

    Replays the quickstart trace adaptively, drives the event-driven
    online runtime for ``online_steps``, and runs a small CATALINA agent
    network on a failing cluster so the message center records real
    send → handle flows (ADM/CA handler spans linked to their senders).
    When ``timeline_jsonl`` is given, the collection window's timeline is
    also snapshotted there.
    """
    from repro import obs
    from repro.core.online import OnlineAdaptiveRuntime
    from repro.obs.report import quickstart_scenario

    app, policy, runtime = quickstart_scenario()
    with obs.collect() as window:
        trace = runtime.characterize(app, policy, num_coarse_steps)
        runtime.run_adaptive(trace, compare_with=("SFC",))
        if online_steps > 0:
            online = OnlineAdaptiveRuntime(
                runtime.cluster, num_procs=runtime.num_procs
            )
            online.run(app, policy, online_steps)
        with obs.span("agent_network"):
            _run_agent_network()
    if timeline_jsonl is not None:
        window.timeline.to_jsonl(timeline_jsonl)
    return chrome_trace_events(window.tracer)
