"""Regenerate the golden comm-cost corpus (``costmodel.json``).

Run from the repo root:

    PYTHONPATH=src python tests/golden/regen_costmodel.py

Each case reuses a hierarchy from the partition corpus (``blob.json``,
...), partitions it, and records sha256 digests of the per-processor
communication bytes and neighbor counts plus the exact ghost-work
scalar.  Only regenerate after an *intended* cost-model change, in the
same commit as the matching ``tests/reference`` update; the golden
tests check both the in-tree kernels and the frozen oracles against the
committed digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.amr.hierarchy import GridHierarchy
from repro.execsim.costmodel import CostModel, comm_cost_terms
from repro.partitioners import PARTITIONER_REGISTRY, build_units

HERE = Path(__file__).parent
NUM_PROCS = 8
GRANULARITY = 4
PARTITIONERS = ("ISP", "G-MISP+SP", "pBD-ISP")


def digest(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


def main() -> None:
    cost = CostModel()
    doc: dict = {
        "num_procs": NUM_PROCS,
        "granularity": GRANULARITY,
        "cases": {},
    }
    for case_path in sorted(HERE.glob("*.json")):
        case = json.loads(case_path.read_text())
        # only the partition-corpus cases carry a hierarchy (not this
        # corpus, the API surface snapshot or the simtest seeds)
        if "hierarchy" not in case:
            continue
        hierarchy = GridHierarchy.from_dict(case["hierarchy"])
        units = build_units(hierarchy, granularity=GRANULARITY)
        entry: dict = {}
        for name in PARTITIONERS:
            part = PARTITIONER_REGISTRY[name]().partition(units, NUM_PROCS)
            comm_bytes, neighbor_count, ghost_work = comm_cost_terms(
                part.cut(), NUM_PROCS, cost.ghost_width,
                cost.bytes_per_comm_unit,
            )
            entry[name] = {
                "comm_bytes_digest": digest(comm_bytes),
                "neighbor_count_digest": digest(neighbor_count),
                # full-precision float round-trips exactly through repr
                "ghost_work": ghost_work,
            }
        doc["cases"][case_path.stem] = entry
    out = HERE / "costmodel.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
