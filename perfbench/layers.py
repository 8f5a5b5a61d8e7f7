"""Per-layer metrics derived from a traced run's spans.

Every workload reports every per-layer metric; a layer the workload does
not run through reports 0.  Times are self seconds per op rescaled to the
nominal host; counts are per op.
"""

from __future__ import annotations

from common import PER_LAYER, percentile
from tracer import Tracer

#: per-layer time metric -> the spans whose self time it sums
SELF_TIME = {
    "policy.classify_s": ("policy.classify",),
    "policy.lookup_s": ("policy.lookup",),
    "core.decide_s": ("core.decide",),
    "partitioners.units_s": ("partitioners.units", "partitioners.units_build"),
    "amr.load_map_s": ("amr.load_map",),
    "partitioners.pbd_isp_s": ("partitioners.partition.pBD-ISP",),
    "partitioners.gmisp_sp_s": ("partitioners.partition.G-MISP+SP",),
    "partitioners.evaluate_s": ("partitioners.evaluate",),
    "execsim.cost_s": ("execsim.cost",),
    "execsim.self_s": ("execsim.run",),
    "serve.parse_s": ("serve.parse",),
    "serve.encode_s": ("serve.encode",),
    "serve.submit_s": ("serve.submit",),
    "sweep.cache_get_s": ("sweep.cache_get",),
    "sweep.cache_put_s": ("sweep.cache_put",),
}

#: per-layer count metric -> the spans whose calls it sums
CALLS = {
    "policy.classify_calls": ("policy.classify",),
    "partitioners.units_built": ("partitioners.units_build",),
    "amr.load_map_calls": ("amr.load_map",),
    "partitioners.pbd_isp_calls": ("partitioners.partition.pBD-ISP",),
    "partitioners.gmisp_sp_calls": ("partitioners.partition.G-MISP+SP",),
    "sweep.cache_get_calls": ("sweep.cache_get",),
    "sweep.cache_put_calls": ("sweep.cache_put",),
}

#: attribution shares: layer -> the self-time metrics it groups
SHARES = {
    "partitioners.share": ("partitioners.units_s", "partitioners.pbd_isp_s",
                           "partitioners.gmisp_sp_s", "partitioners.other_s",
                           "partitioners.evaluate_s"),
    "execsim.share": ("execsim.cost_s", "execsim.self_s"),
    "policy.share": ("policy.classify_s", "policy.lookup_s", "core.decide_s"),
}


def span_metrics(tracer: Tracer, ops: int, factor: float,
                 excluded_s: float = 0.0) -> dict[str, float]:
    """Self times and call counts per op; every metric present.

    ``excluded_s`` is benchmark time (calibration) spent inside the
    simulator's run and removed from its self time.
    """
    out = dict.fromkeys(PER_LAYER, 0.0)
    for metric, spans in SELF_TIME.items():
        out[metric] = sum(tracer.self_s(s) for s in spans) * factor / ops
    out["execsim.self_s"] = max(
        out["execsim.self_s"] - excluded_s * factor / ops, 0.0
    )
    for metric, spans in CALLS.items():
        out[metric] = sum(tracer.calls(s) for s in spans) / ops
    named = SELF_TIME["partitioners.pbd_isp_s"] + SELF_TIME["partitioners.gmisp_sp_s"]
    others = [s for s in tracer.spans
              if s.startswith("partitioners.partition.") and s not in named]
    out["partitioners.other_s"] = sum(tracer.self_s(s) for s in others) * factor / ops
    out["partitioners.other_calls"] = sum(tracer.calls(s) for s in others) / ops
    out["serve.execute_s"] = tracer.total_s("serve.execute") * factor / ops
    out["sweep.cache_put_bytes"] = (
        tracer.counts.get("sweep.cache_put_bytes", 0.0) / ops
    )
    return out


def adaptive_layers(tracer: Tracer, replay, overhead: float) -> dict[str, float]:
    """Per-layer metrics of one traced managed replay."""
    out = span_metrics(tracer, 1, replay.factor, replay.calibration_s)
    wall = replay.raw_s * replay.factor
    for share, parts in SHARES.items():
        out[share] = sum(out[p] for p in parts) / wall
    out["trace.overhead"] = overhead
    return out


def queue_waits(waits_s: list[float], out: dict[str, float]) -> None:
    """Fill the queue-wait percentiles from per-job waits (seconds)."""
    if waits_s:
        ms = [1e3 * w for w in waits_s]
        out["serve.queue_wait_ms_p50"] = percentile(ms, 50)
        out["serve.queue_wait_ms_p90"] = percentile(ms, 90)
