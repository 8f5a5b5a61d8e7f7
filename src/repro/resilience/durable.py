"""Crash-consistent on-disk checkpoint store.

:class:`~repro.resilience.checkpoint.CheckpointStore` keeps checkpoints in
memory — enough to model rollback *cost*, but a real Cactus-Worm restart
survives the driver process dying, which needs stable storage that stays
consistent under exactly the failures this repo injects: a crash mid-write
(torn record) and silent media corruption (bit flips).

Each checkpoint is one file written with the classic atomic recipe —
serialize to ``<name>.tmp``, ``fsync``, then ``os.replace`` onto the final
name (and ``fsync`` the directory so the rename itself is durable).  A
reader therefore never observes a half-renamed record; a crash before the
rename leaves only a ``.tmp`` file that restore ignores.

The record format is self-validating::

    {"format": "repro-ckpt-v1", "step": ..., "sim_time": ..., "num_cells": ...,
     "payload_bytes": N, "payload_sha256": "<hex>"}\\n
    <N bytes of JSON-serialized hierarchy>

Restore walks records newest-first and returns the first one that passes
validation, counting every rejected record under
``resilience.checkpoint_corrupt{reason}`` (``header`` / ``torn`` /
``checksum`` / ``decode``) — a corrupted newest checkpoint costs one
extra interval of rollback, never the run.  :func:`corrupt_checkpoint` is
the matching fault injector used by the chaos matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path

from repro import obs
from repro.amr.hierarchy import GridHierarchy
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointCostModel,
    CheckpointStore,
)

__all__ = ["DurableCheckpointStore", "corrupt_checkpoint", "FORMAT_NAME"]

FORMAT_NAME = "repro-ckpt-v1"
_SUFFIX = ".ckpt"


def _fsync_dir(directory: Path) -> None:
    """Flush the directory entry so a completed rename survives a crash."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open support
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. directories on some FSes
        pass
    finally:
        os.close(fd)


class DurableCheckpointStore(CheckpointStore):
    """Checkpoint store that also persists every save to disk.

    Extends the in-memory :class:`CheckpointStore` (same cost model, same
    counters, same bounded ``keep`` window) with a crash-consistent file
    per checkpoint.  :meth:`restore` reads back from *disk*, walking to
    the newest record that validates, so a torn or bit-flipped newest
    record falls back to the previous one instead of poisoning recovery.
    """

    def __init__(
        self,
        directory: str | Path,
        cost_model: CheckpointCostModel | None = None,
        *,
        keep: int = 2,
    ) -> None:
        super().__init__(cost_model, keep=keep)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._keep = keep

    # -- record IO -----------------------------------------------------------------

    def record_paths(self) -> list[Path]:
        """Persisted records, oldest first (save order == name order)."""
        return sorted(self.directory.glob(f"*{_SUFFIX}"))

    def _persist(self, ck: Checkpoint) -> Path:
        payload = json.dumps(
            ck.hierarchy.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        header = {
            "format": FORMAT_NAME,
            "step": ck.step,
            "sim_time": ck.sim_time,
            "num_cells": ck.num_cells,
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        name = f"ckpt-{self.saved:06d}-step{ck.step:06d}{_SUFFIX}"
        final = self.directory / name
        tmp = final.with_suffix(final.suffix + ".tmp")
        blob = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload
        with open(tmp, "wb") as f:
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, final)
        _fsync_dir(self.directory)
        return final

    def _prune(self) -> None:
        paths = self.record_paths()
        for stale in paths[: max(0, len(paths) - self._keep)]:
            stale.unlink(missing_ok=True)

    @staticmethod
    def validate(path: Path) -> tuple[Checkpoint | None, str | None]:
        """Deserialize one record; ``(checkpoint, None)`` or ``(None, reason)``.

        Reasons: ``header`` (unreadable or malformed header line),
        ``torn`` (payload length disagrees with the header — a write cut
        short), ``checksum`` (length right, bytes wrong — media bit rot),
        ``decode`` (checksummed bytes that no longer parse; in practice
        only reachable if the writer itself was buggy).
        """
        try:
            blob = Path(path).read_bytes()
        except OSError:
            return None, "header"
        head, sep, payload = blob.partition(b"\n")
        if not sep:
            return None, "header"
        try:
            header = json.loads(head)
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None, "header"
        if (
            not isinstance(header, dict)
            or header.get("format") != FORMAT_NAME
            or not all(
                k in header
                for k in ("step", "sim_time", "num_cells", "payload_bytes",
                          "payload_sha256")
            )
        ):
            return None, "header"
        if len(payload) != header["payload_bytes"]:
            return None, "torn"
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            return None, "checksum"
        try:
            hierarchy = GridHierarchy.from_dict(json.loads(payload))
        except Exception:
            return None, "decode"
        return (
            Checkpoint(
                step=int(header["step"]),
                sim_time=float(header["sim_time"]),
                num_cells=int(header["num_cells"]),
                hierarchy=hierarchy,
            ),
            None,
        )

    # -- CheckpointStore API -------------------------------------------------------

    def save(
        self, step: int, sim_time: float, hierarchy: GridHierarchy
    ) -> tuple[Checkpoint, float]:
        """Coordinated checkpoint, durably persisted before it is visible."""
        ck, seconds = super().save(step, sim_time, hierarchy)
        self._persist(ck)
        self._prune()
        return ck, seconds

    def restore(self) -> tuple[Checkpoint, float]:
        """Roll back to the newest *valid* on-disk checkpoint.

        Records that fail validation are skipped (newest-first) and
        counted under ``resilience.checkpoint_corrupt{reason}``; each
        skip widens the rollback by one checkpoint interval.  Raises
        ``RuntimeError`` when no record validates.
        """
        for path in reversed(self.record_paths()):
            ck, reason = self.validate(path)
            if ck is None:
                obs.counter("resilience.checkpoint_corrupt", reason=reason).inc()
                continue
            self.restored += 1
            seconds = self.cost.restore_seconds(ck.num_cells)
            obs.counter("resilience.restores").inc()
            obs.counter("resilience.restore_seconds").inc(seconds)
            return ck, seconds
        raise RuntimeError(
            f"no valid checkpoint record in {self.directory} "
            f"({len(self.record_paths())} present, all corrupt)"
        )


def corrupt_checkpoint(
    path: str | Path, mode: str = "torn", seed: int = 0
) -> None:
    """Damage one checkpoint record the way real storage fails.

    ``mode="torn"`` truncates the payload mid-record (a crash between the
    write and the fsync made durable only a prefix); ``mode="bitflip"``
    flips one deterministic bit inside the payload (silent media
    corruption the checksum must catch).  Both leave the header intact so
    validation exercises the payload checks, not the header parse.
    """
    p = Path(path)
    blob = p.read_bytes()
    head, sep, payload = blob.partition(b"\n")
    if not sep or not payload:
        raise ValueError(f"{p} is not a checkpoint record")
    if mode == "torn":
        cut = max(1, len(payload) // 2)
        blob = head + sep + payload[:cut]
    elif mode == "bitflip":
        rng = random.Random(seed)
        idx = rng.randrange(len(payload))
        flipped = payload[idx] ^ (1 << rng.randrange(8))
        blob = head + sep + payload[:idx] + bytes([flipped]) + payload[idx + 1:]
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    p.write_bytes(blob)
