"""How a file reaches disk, and when it can be trusted on the way back.

:func:`write_file` is the one write path for every artifact the package
stores: a per-writer ``mkstemp`` file in the target directory, ``fsync``,
:func:`os.replace`, then a best-effort directory ``fsync``.  A crash at
any instant leaves the old file or the new one, never a partial one, and
concurrent writers never share a temp file (``.<name>.*.tmp``, which no
reader opens).

:func:`write_record` frames a payload that must also survive silent
corruption: one JSON header line (``format``, the caller's fields,
``payload_bytes``, ``payload_sha256``), then the payload.
:func:`read_record` returns a record that validates, or the reason it
does not: ``header`` (missing, malformed, or another format), ``torn``
(wrong length: a write cut short) or ``checksum`` (bit rot).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

__all__ = ["read_record", "write_file", "write_record"]


def write_file(path: str | Path, data: bytes) -> Path:
    """Durably replace ``path`` (parents created) with ``data``; returns
    the path.  On an error ``path`` keeps its old content.  A symlink is
    followed; a pipe or device (``/dev/stdout``) is written straight through.
    """
    path = Path(path)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            fh.write(data)
        return path
    target = path.resolve()
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp",
                               dir=target.parent)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    dir_fd = os.open(target.parent, os.O_RDONLY)
    try:
        with contextlib.suppress(OSError):  # some file systems refuse
            os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def write_record(path: str | Path, fmt: str, payload: bytes,
                 **fields: Any) -> Path:
    """Write ``payload`` under a checksummed header holding ``fields``."""
    header = {**fields, "format": fmt, "payload_bytes": len(payload),
              "payload_sha256": hashlib.sha256(payload).hexdigest()}
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    return write_file(path, head + b"\n" + payload)


def read_record(
    path: str | Path, fmt: str
) -> tuple[dict[str, Any] | None, bytes | None, str | None]:
    """``(header, payload, None)`` for a valid ``fmt`` record at ``path``,
    else ``(None, None, reason)``."""
    try:
        with open(path, "rb") as fh:
            head, sep, payload = fh.read().partition(b"\n")
        header = json.loads(head.decode()) if sep else None
    except (OSError, ValueError):
        header = None
    if (not isinstance(header, dict) or header.get("format") != fmt
            or not isinstance(header.get("payload_bytes"), int)
            or not isinstance(header.get("payload_sha256"), str)):
        return None, None, "header"
    if len(payload) != header["payload_bytes"]:
        return None, None, "torn"
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        return None, None, "checksum"
    return header, payload, None
