"""Steadiness check: run a workload on several seeds and report the spread.

    python3 perfbench/steadiness.py --workload serve-hot --seeds 1-10 \\
        --seconds 20 --out perfbench/evidence/serve-hot.json

For every end-to-end metric it prints the median over the runs and the
spread (interquartile range over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them), once for the reported
nominal-host value and once for the raw wall-clock value of the same
runs, so the effect of calibration is visible.  ``--out`` keeps every
run's figures as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """Interquartile range over median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True,
                        help="seed range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900, check=True,
        )
        *_, host, result = proc.stdout.strip().splitlines()
        result, host = json.loads(result), json.loads(host)["host"]
        runs.append({"seed": seed, "wall_s": time.monotonic() - t0,
                     "correct": result["correct"],
                     "attempted": result["attempted"],
                     "failed": result["failed"], "speed": host["speed"],
                     "nominal": host["nominal"],
                     "raw": host["raw"]})
        print(f"seed {seed}: {runs[-1]['wall_s']:.1f} s, speed "
              f"{host['speed']:.3f}, failed {result['failed']}/"
              f"{result['attempted']}", file=sys.stderr)

    print(f"{args.workload}: {len(runs)} runs, "
          f"{sum(r['failed'] for r in runs)} failed ops")
    print(f"{'metric':16} {'median':>10} {'spread':>7} {'raw median':>11} "
          f"{'raw spread':>10}")
    summary = {}
    for name in runs[0]["nominal"]:
        nominal = [r["nominal"][name] for r in runs]
        row = {"median": statistics.median(nominal), "spread": spread(nominal)}
        if name in runs[0]["raw"]:
            raw = [r["raw"][name] for r in runs]
            row |= {"raw_median": statistics.median(raw), "raw_spread": spread(raw)}
        summary[name] = row
        print(f"{name:16} {row['median']:10.4g} {row['spread']:7.3f} "
              f"{row.get('raw_median', float('nan')):11.4g} "
              f"{row.get('raw_spread', float('nan')):10.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
