"""Traced server launcher: wrap the serving layers, then run ``repro serve``.

    python3 perfbench/serve_launcher.py DUMP.json serve --socket PATH ...

Installs :func:`tracer.install_serving` and a job-event listener (queue
waits: ``queued`` to first ``running``), then calls the same entry point
as ``python -m repro``.  A ``reset`` line on stdin zeroes everything
recorded so far (the benchmark sends it once set-up is done).  When the
server shuts down, the spans and waits are written to ``DUMP.json`` for
the benchmark process to read.
"""

from __future__ import annotations

import json
import sys
import threading

from tracer import Tracer, install_serving


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_serving(tracer)

    from repro.cli import main as repro_main
    from repro.serve.server import ScenarioServer

    lock = threading.Lock()
    queued: dict[int, float] = {}
    waits: list[float] = []

    def reset_on_request() -> None:
        # each "reset" line on stdin zeroes everything recorded so far:
        # the benchmark measures from there on, set-up work is dropped
        for line in sys.stdin:
            if line.strip() == "reset":
                with lock:
                    tracer.reset()
                    queued.clear()
                    waits.clear()
                with open(f"{dump}.reset", "w"):
                    pass

    threading.Thread(target=reset_on_request, daemon=True).start()

    def listener(job, kind: str, t: float, attrs: dict) -> None:
        with lock:
            if kind == "queued":
                queued[job.seq] = t
            elif kind == "running" and job.seq in queued:
                waits.append(t - queued.pop(job.seq))

    init = ScenarioServer.__init__

    def traced_init(self, *args, **kwargs) -> None:
        init(self, *args, **kwargs)
        self.add_listener(listener)

    ScenarioServer.__init__ = traced_init
    code = repro_main(argv)
    with open(dump, "w") as fh:
        json.dump({"tracer": tracer.snapshot(), "queue_waits_s": waits}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
