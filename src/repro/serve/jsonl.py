"""JSONL transports for the scenario server: streams and a local socket.

Two ways to feed a :class:`~repro.serve.server.ScenarioServer`:

- :func:`run_requests` — the one-shot stream mode behind
  ``python -m repro serve`` (stdin or ``--requests FILE``): every line
  is dispatched as it is read, the server drains at end-of-stream, and
  one ``result`` line per submit (in request order) plus a final
  ``stats`` line are emitted.
- :func:`serve_socket` — a local (UNIX-domain) socket accepting
  line-oriented connections; each request line is answered immediately,
  ``result`` waits for a terminal job, and ``shutdown`` stops the
  listener.  One connection per client, many clients at once.

Both read their input through :func:`bounded_lines` and answer each
line through one handler (:func:`_respond_line`): a line longer than
:data:`MAX_LINE_BYTES` is answered with one ``error`` and skipped, and
reading goes on (the connection stays open); blank lines and ``#``
comments are skipped; a malformed line gets one ``error``.

Both share :class:`Session`, which maps client request ids to
:class:`~repro.serve.server.JobHandle`\\ s.
"""

from __future__ import annotations

import os
import socketserver
import threading
import time
from typing import Any, BinaryIO, Callable, Iterable, Iterator, TextIO

from repro.obs.live import CONTENT_TYPE
from repro.serve.protocol import ProtocolError, encode, parse_request
from repro.serve.server import ScenarioServer

__all__ = [
    "MAX_LINE_BYTES",
    "Session",
    "bounded_lines",
    "run_requests",
    "serve_socket",
]

#: longest request line the transports read (bytes, not counting the
#: newline)
MAX_LINE_BYTES = 1 << 20

_OVERLONG = f"request line exceeds {MAX_LINE_BYTES} bytes"


def bounded_lines(stream: BinaryIO) -> Iterator[str | None]:
    """Decoded lines of a binary stream, none longer than the bound.

    A line over :data:`MAX_LINE_BYTES` yields ``None`` instead; the rest
    of it is then read in bounded chunks and discarded, so no more than
    ``MAX_LINE_BYTES + 1`` bytes are ever held at once.
    """
    while raw := stream.readline(MAX_LINE_BYTES + 1):
        if len(raw) > MAX_LINE_BYTES and not raw.endswith(b"\n"):
            yield None
            while raw and not raw.endswith(b"\n"):
                raw = stream.readline(MAX_LINE_BYTES + 1)
            continue
        yield raw.decode("utf-8", errors="replace")


class Session:
    """One client's request-id → job-handle map and dispatch logic.

    ``sleeper`` paces ``stats-stream`` ticks; injecting one (a virtual
    clock's sleep, a fake) makes streaming behavior schedulable in tests
    — the default is real :func:`time.sleep`.
    """

    def __init__(
        self,
        server: ScenarioServer,
        *,
        sleeper: Callable[[float], None] | None = None,
    ) -> None:
        self.server = server
        self.sleeper = sleeper if sleeper is not None else time.sleep
        self.handles: dict[str, Any] = {}
        self.order: list[str] = []
        self._auto = 0
        self.shutdown_requested = False

    def _request_id(self, req: dict[str, Any]) -> str:
        rid = req.get("id")
        if rid is None:
            self._auto += 1
            rid = f"req-{self._auto}"
        return str(rid)

    def dispatch(self, req: dict[str, Any]) -> dict[str, Any]:
        """Execute one parsed request; returns the immediate response."""
        op = req["op"]
        if op == "submit":
            rid = self._request_id(req)
            handle = self.server.submit(
                req["scenario"],
                req.get("params"),
                priority=req.get("priority", "normal"),
                timeout_s=req.get("timeout_s"),
                max_retries=req.get("max_retries"),
            )
            self.handles[rid] = handle
            self.order.append(rid)
            resp: dict[str, Any] = {
                "op": "accepted",
                "id": rid,
                "job": handle.job_id,
                "status": handle.status,
            }
            if handle.status == "shed":
                resp["reason"] = handle.record()["error"]
            return resp
        if op == "cancel":
            rid = str(req["id"])
            handle = self.handles.get(rid)
            ok = handle.cancel() if handle is not None else False
            return {"op": "cancel-ack", "id": rid, "ok": ok}
        if op == "result":
            rid = str(req["id"])
            handle = self.handles.get(rid)
            if handle is None:
                return {"op": "error", "id": rid, "error": f"unknown id {rid!r}"}
            handle.wait(req.get("timeout_s"))
            return {"op": "result", "id": rid, **handle.record()}
        if op == "stats":
            return {"op": "stats", "stats": self.server.stats()}
        if op == "metrics":
            return {
                "op": "metrics",
                "content_type": CONTENT_TYPE,
                "text": self.server.scrape_metrics(),
            }
        if op == "health":
            return {"op": "health", **self.server.health().to_dict()}
        if op == "drain":
            idle = self.server.drain(req.get("timeout_s"))
            return {"op": "drained", "idle": idle}
        if op == "shutdown":
            self.shutdown_requested = True
            return {"op": "shutdown-ack"}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def dispatch_iter(self, req: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Execute one parsed request, yielding one or more responses.

        Every op yields exactly one document except ``stats-stream``,
        which yields ``count`` ``stats-tick`` documents ``interval_s``
        seconds apart — the transports write and flush each as it
        arrives, so a ``python -m repro top`` client renders live.
        """
        if req["op"] != "stats-stream":
            yield self.dispatch(req)
            return
        count = req.get("count", 1)
        interval_s = req.get("interval_s", 0)
        flight_tail = req.get("flight_tail", 20)
        for seq in range(count):
            if seq:
                self.sleeper(interval_s)
            tick = self.server.live_snapshot(flight_tail=flight_tail)
            tick["seq"] = seq
            tick["of"] = count
            yield tick


def _respond_line(
    session: Session, line: str | None
) -> Iterator[dict[str, Any]]:
    """The response documents for one request line of either transport.

    ``None`` (an over-long line, as :func:`bounded_lines` reports it)
    and a malformed line yield one ``error``; a blank line or a ``#``
    comment yields nothing; anything else is dispatched through
    :meth:`Session.dispatch_iter`.
    """
    if line is None:
        yield {"op": "error", "error": _OVERLONG}
        return
    if not line.strip() or line.lstrip().startswith("#"):
        return
    try:
        req = parse_request(line)
    except ProtocolError as exc:
        yield {"op": "error", "error": str(exc)}
        return
    yield from session.dispatch_iter(req)


def run_requests(
    server: ScenarioServer,
    lines: Iterable[str | None],
    out: TextIO,
    *,
    drain_timeout: float | None = None,
) -> dict[str, Any]:
    """One-shot stream mode: dispatch every line, drain, emit results.

    Emits one response line per request as it is processed, then (after
    the server drains) one ``result`` line per submit in request order
    and a final ``stats`` line.  Each line is answered by
    :func:`_respond_line`, so malformed and over-long lines produce
    ``error`` responses without killing the stream.  Returns a summary
    with per-status job counts.
    """
    session = Session(server)
    for line in lines:
        for resp in _respond_line(session, line):
            print(encode(resp), file=out, flush=True)
        if session.shutdown_requested:
            break
    server.drain(drain_timeout)
    by_status: dict[str, int] = {}
    for rid in session.order:
        handle = session.handles[rid]
        handle.wait(drain_timeout)
        record = handle.record()
        by_status[record["status"]] = by_status.get(record["status"], 0) + 1
        print(encode({"op": "result", "id": rid, **record}), file=out)
    stats = server.stats()
    print(encode({"op": "stats", "stats": stats}), file=out)
    return {
        "requests": len(session.order),
        "by_status": dict(sorted(by_status.items())),
        "stats": stats,
    }


class _SocketHandler(socketserver.StreamRequestHandler):
    """One JSONL connection: a line in, a response line out."""

    def _send(self, doc: dict[str, Any]) -> None:
        # write-and-flush per document, so stats-stream ticks reach the
        # client as they are produced, not at stream end
        self.wfile.write((encode(doc) + "\n").encode())
        self.wfile.flush()

    def handle(self) -> None:  # pragma: no cover - exercised via socket test
        session = Session(self.server.scenario_server)  # type: ignore[attr-defined]
        for line in bounded_lines(self.rfile):
            for resp in _respond_line(session, line):
                self._send(resp)
            if session.shutdown_requested:
                self.server.shutdown_event.set()  # type: ignore[attr-defined]
                return


class _ThreadingUnixServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True


def serve_socket(
    server: ScenarioServer,
    path: str,
    *,
    ready: threading.Event | None = None,
) -> None:
    """Serve JSONL connections on a UNIX-domain socket at ``path``.

    Blocks until a client sends ``{"op": "shutdown"}``.  The scenario
    server itself is shut down by the caller, not here.  A pre-existing
    socket file at ``path`` (a previous run, or a crash that never
    cleaned up) is unlinked before binding — SO_REUSEADDR does nothing
    for AF_UNIX — and the file is removed again on exit.

    ``ready`` (when given) is set once the socket is bound and
    listening, so a caller running this in a thread can connect
    immediately instead of polling the filesystem with sleeps.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    sock = _ThreadingUnixServer(path, _SocketHandler)
    sock.scenario_server = server  # type: ignore[attr-defined]
    sock.shutdown_event = threading.Event()  # type: ignore[attr-defined]
    listener = threading.Thread(target=sock.serve_forever, daemon=True)
    listener.start()
    if ready is not None:
        ready.set()
    try:
        sock.shutdown_event.wait()  # type: ignore[attr-defined]
    finally:
        sock.shutdown()
        sock.server_close()
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
