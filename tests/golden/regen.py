"""Regenerate the golden partition corpus.

Run from the repo root:

    PYTHONPATH=src python tests/golden/regen.py

Each JSON file holds a serialized hierarchy plus sha256 digests of the
composite workload map and of every registry partitioner's owner array.
Only regenerate after an *intended* algorithm change, in the same commit
as the matching ``tests/reference`` update; the golden tests check both
the in-tree kernels and the frozen oracles against the committed digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.amr.box import Box
from repro.amr.regrid import Regridder, RegridPolicy
from repro.amr.workload import composite_load_map
from repro.partitioners import PARTITIONER_REGISTRY, build_units

HERE = Path(__file__).parent
NUM_PROCS = 8
GRANULARITY = 4


def digest(arr: np.ndarray) -> str:
    arr = np.asarray(arr)
    dtype = np.float64 if np.issubdtype(arr.dtype, np.floating) else np.int64
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=dtype).tobytes()
    ).hexdigest()


def hierarchies():
    rng = np.random.default_rng(2026)

    blob_domain = Box((0, 0, 0), (32, 16, 16))
    err = np.zeros(blob_domain.shape)
    err[6:14, 4:10, 4:10] = 0.6
    err[8:12, 5:8, 5:8] = 0.95
    yield "blob", Regridder(
        blob_domain, RegridPolicy(thresholds=(0.3, 0.8))
    ).regrid(err)

    noise_domain = Box((0, 0, 0), (24, 24, 12))
    yield "bulky", Regridder(
        noise_domain, RegridPolicy(thresholds=(0.55, 0.85))
    ).regrid(rng.random(noise_domain.shape))

    sparse_domain = Box((0, 0, 0), (32, 32, 16))
    spikes = (rng.random(sparse_domain.shape) > 0.985).astype(float)
    yield "spiky", Regridder(
        sparse_domain, RegridPolicy(thresholds=(0.5,))
    ).regrid(spikes)


def main() -> None:
    for name, hierarchy in hierarchies():
        workload = composite_load_map(hierarchy)
        units = build_units(hierarchy, granularity=GRANULARITY)
        doc = {
            "num_procs": NUM_PROCS,
            "granularity": GRANULARITY,
            "hierarchy": hierarchy.to_dict(),
            "workload_digest": digest(workload.values),
            "partitions": {
                pname: digest(
                    cls().partition(units, NUM_PROCS).assignment
                )
                for pname, cls in PARTITIONER_REGISTRY.items()
            },
        }
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path} ({hierarchy.num_patches} patches)")


if __name__ == "__main__":
    main()
