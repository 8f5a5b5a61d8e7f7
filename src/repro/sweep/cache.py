"""Content-addressed on-disk result cache for scenario sweeps.

A cache entry is addressed by the key of
:func:`~repro.sweep.scenario.run_identity`: the SHA-256 of the code salt
(:func:`code_salt`, a hash of the package's own source), the scenario's
version, name, canonicalized parameters and derived seed.  So any edit
to the code invalidates every entry at once, bumping one scenario's
``version`` invalidates just that scenario, and a run under another base
seed never reads this one's result.  Entries hold a :func:`cache_record`
and are checksummed records (:func:`repro.util.fileio.write_record`)
with the salt in their header; one that fails validation is a miss.
The first write through a :class:`ResultCache` deletes the entries an
older salt left behind, since no key can address them again.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.util.fileio import read_record, write_record

__all__ = ["ResultCache", "cache_record", "code_salt"]

#: header ``format`` of a cache entry
FORMAT_NAME = "repro-result-v1"
#: the most of an entry read when looking for its salt (a header is
#: about 250 bytes; a longer first line is not a header)
_MAX_HEADER_BYTES = 4096


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


def cache_record(
    name: str, params: dict[str, Any], seed: int, result: Any
) -> dict[str, Any]:
    """The document the sweep and the server store for one finished run;
    both read a hit's result back as ``document["result"]``."""
    return {"scenario": name, "params": params, "seed": seed,
            "result": result}


class ResultCache:
    """Directory of content-addressed scenario results.

    ``get``/``put`` speak full cache documents (:func:`cache_record`);
    keys come from :func:`~repro.sweep.scenario.run_identity`.  The
    directory is created lazily on first write so a read-only sweep never
    touches disk.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        if directory is None:
            directory = Path(__file__).resolve().parents[3] / ".cache" / "sweep"
        self.directory = Path(directory)
        self._stale_dropped = False

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
        """Store ``document`` under ``key`` durably; returns its path.

        The first put of this instance first drops the stale entries
        (see :meth:`_drop_stale`).
        """
        if not self._stale_dropped:
            # two threads racing here both scan; each unlink is idempotent
            self._stale_dropped = True
            self._drop_stale()
        payload = json.dumps(document, separators=(",", ":")).encode()
        return write_record(self.path_for(key), FORMAT_NAME, payload,
                            salt=code_salt())

    def _drop_stale(self) -> None:
        """Unlink every entry whose header carries a salt other than
        :func:`code_salt`.

        Only the header line is read.  An entry whose header does not
        parse stays: it is a miss, overwritten by the next put of its key.
        """
        salt = code_salt()
        for path in self.directory.glob("*.json"):
            try:
                with open(path, "rb") as fh:
                    header = json.loads(fh.readline(_MAX_HEADER_BYTES))
                if (isinstance(header, dict)
                        and header.get("format") == FORMAT_NAME
                        and header.get("salt", salt) != salt):
                    path.unlink()
            except (OSError, ValueError):
                pass
