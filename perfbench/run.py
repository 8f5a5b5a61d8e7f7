"""Pragma's benchmark: the adaptive management loop and the serving path.

    python3 perfbench/run.py --workload adapt-paper --seed 1 --seconds 20 --trace 0

Workloads: ``adapt-paper`` (managed replays of the reference RM3D trace),
``serve-hot`` (closed-loop result-cache hits over the JSONL socket) and
``serve-mixed`` (open-loop Poisson arrivals of small, mostly new
scenarios).  With ``--trace 0`` the last stdout line reports every
end-to-end metric; with ``--trace 1`` a traced run reports every
per-layer metric.  Time metrics are rescaled to a nominal host by the
interleaved calibration kernel (:mod:`calib`); the line before the last
carries the raw figures and the host-speed factor beside them.
``--tiny`` shrinks every workload for a quick smoke run, and
``--inject-wrong`` corrupts one op's output to prove the checks count it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import END_TO_END, PER_LAYER, ROOT, SRC, WORK  # noqa: E402

WORKLOADS = ("adapt-paper", "serve-hot", "serve-mixed")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (small trace, short runs)")
    parser.add_argument("--inject-wrong", action="store_true",
                        help="corrupt one op's output (checks must catch it)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # socket paths and the work directory are relative to the checkout
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    if opts.workload == "adapt-paper":
        import adapt as workload
    else:
        import serving as workload
    doc = workload.run(opts)

    declared = PER_LAYER if opts.trace else END_TO_END
    values = dict(doc["layers"]) if opts.trace else dict(doc["metrics"])
    if opts.trace:
        values["tail.latency_p99_ms"] = doc["metrics"]["latency_p99_ms"]
        values["host.speed"] = doc["speed"]
        for name, raw in doc["raw"].items():
            values[f"host.raw_{name}"] = raw
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({"host": {"speed": doc["speed"], "kernel_ms": doc["kernel_ms"],
                               "raw": doc["raw"], "nominal": doc["metrics"]}}))
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
