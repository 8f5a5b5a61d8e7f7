"""Content-addressed on-disk result cache for scenario sweeps.

A cache entry is addressed by the SHA-256 of the scenario's full
identity — name, canonicalized parameters, per-scenario version, and
the code salt (:func:`code_salt`, a hash of the package's own source),
so any edit to the code invalidates every entry at once, and bumping one
scenario's ``version`` invalidates just that scenario.  Entries are
checksummed records (:func:`repro.util.fileio.write_record`) with the
salt in their header; one that fails validation is a miss.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.util.fileio import read_record, write_record

__all__ = ["ResultCache", "cache_key", "code_salt"]

#: header ``format`` of a cache entry
FORMAT_NAME = "repro-result-v1"


@functools.cache
def code_salt() -> str:
    """The code-version salt folded into every cache key: a SHA-256 over
    every ``.py`` file of the package (sorted relative path, length and
    bytes) plus the numpy version, computed once per process."""
    root = Path(__file__).resolve().parents[1]
    h = hashlib.sha256()
    for rel in sorted(f.relative_to(root).as_posix() for f in root.rglob("*.py")):
        data = (root / rel).read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return f"{h.hexdigest()}:numpy-{np.__version__}"


def cache_key(
    name: str,
    params: dict[str, Any],
    *,
    version: str = "1",
    salt: str | None = None,
) -> str:
    """SHA-256 identity of one scenario configuration (hex digest).

    Stable under parameter reordering (parameters are canonicalized) and
    distinct across names, parameter values, scenario versions and code
    salts; ``salt`` defaults to :func:`code_salt`.
    """
    from repro.sweep.scenario import canonical_params

    payload = "\n".join(["repro-sweep", salt or code_salt(), version, name,
                         canonical_params(params)])
    return hashlib.sha256(payload.encode()).hexdigest()


class ResultCache:
    """Directory of content-addressed scenario results.

    ``get``/``put`` speak full cache documents (scenario identity +
    result payload); keys come from :func:`cache_key`.  The directory is
    created lazily on first write so a read-only sweep never touches
    disk.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = Path(__file__).resolve().parents[3] / ".cache" / "sweep"
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        """Filesystem path of the entry addressed by ``key``."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached document for ``key``, or ``None`` on a miss.

        Entries that fail validation count as misses (they are simply
        overwritten on the next put).
        """
        _, payload, reason = read_record(self.path_for(key), FORMAT_NAME)
        return None if reason is not None else json.loads(payload.decode())

    def put(self, key: str, document: dict[str, Any]) -> Path:
        """Store ``document`` under ``key`` durably; returns its path."""
        payload = json.dumps(document, separators=(",", ":")).encode()
        return write_record(self.path_for(key), FORMAT_NAME, payload,
                            salt=code_salt())
