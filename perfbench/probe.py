"""Child-process helper: prepare a shared trace, or time the adaptive set-up.

``probe.py --prepare SPEC`` generates the shared RM3D trace ``SPEC``
(``small`` or ``reference``) under the benchmark's trace directory.
``probe.py --setup SPEC`` performs the adaptive workload's set-up — import
the runtime, load the trace — then prints ``ready`` and exits; the parent
times it from spawn to that line.
"""

from __future__ import annotations

import argparse
import sys

from common import TRACE_DIR


def load_trace(spec: str):
    """Load (generating on first use) the shared trace ``spec``."""
    from repro.experiments import common

    loaders = {
        "small": common.rm3d_small_trace,
        "reference": common.rm3d_reference_trace,
    }
    return loaders[spec](TRACE_DIR)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--prepare", choices=("small", "reference"))
    group.add_argument("--setup", choices=("small", "reference"))
    args = parser.parse_args()
    if args.prepare:
        load_trace(args.prepare)
        return 0
    import repro.core.meta_partitioner  # noqa: F401
    import repro.execsim  # noqa: F401
    import repro.gridsys  # noqa: F401

    load_trace(args.setup)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
