"""The one file writer (repro.util.fileio) and its crash safety.

The crash tests fork a child that dies (``os._exit``, no cleanup) at one
point of :func:`write_file` — before the file ``fsync``, before the
rename, before the directory ``fsync`` — while overwriting an existing
artifact.  The parent then reads the artifact back through its real
reader: it must find the old content or the new one, never a partial
file, for a cached result, a trace and a checkpoint.
"""

import os
import threading

import pytest

from repro.amr.trace import AdaptationTrace
from repro.resilience import DurableCheckpointStore
from repro.sweep import ResultCache, cache_key
from repro.util.fileio import read_record, write_file, write_record

CRASHED = 17


class TestWriteFile:
    def test_failed_write_keeps_old_content(self, tmp_path, monkeypatch):
        path = write_file(tmp_path / "doc", b"old")

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write_file(path, b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["doc"]


    def test_symlink_keeps_pointing_at_the_new_content(self, tmp_path):
        target = write_file(tmp_path / "real" / "doc", b"old")
        link = tmp_path / "link"
        link.symlink_to(target)
        write_file(link, b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"

    def test_pipe_is_written_through(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_file(fifo, b"streamed")
        reader.join(timeout=10)
        assert not reader.is_alive() and got == [b"streamed"]
        assert os.listdir(tmp_path) == ["fifo"]


class TestRecord:
    def test_roundtrip(self, tmp_path):
        path = write_record(tmp_path / "r", "fmt-v1", b"payload", step=3)
        header, payload, reason = read_record(path, "fmt-v1")
        assert reason is None and payload == b"payload"
        assert header["step"] == 3 and header["payload_bytes"] == 7

    @pytest.mark.parametrize("damage, reason", [
        (lambda blob: blob[:-3], "torn"),
        (lambda blob: blob[:-1] + bytes([blob[-1] ^ 1]), "checksum"),
        (lambda blob: blob.partition(b"\n")[2], "header"),
        (lambda blob: b"", "header"),
    ])
    def test_damage_is_reported(self, tmp_path, damage, reason):
        path = write_record(tmp_path / "r", "fmt-v1", b"payload")
        path.write_bytes(damage(path.read_bytes()))
        assert read_record(path, "fmt-v1") == (None, None, reason)

    def test_other_format_and_missing_file(self, tmp_path):
        path = write_record(tmp_path / "r", "fmt-v1", b"payload")
        assert read_record(path, "fmt-v2")[2] == "header"
        assert read_record(tmp_path / "nope", "fmt-v1")[2] == "header"


def _crash_during(write, point):
    """Run ``write()`` in a forked child that dies at ``point``."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        try:
            fsync, calls = os.fsync, []

            def die(*args):
                os._exit(CRASHED)

            def counted_fsync(fd):
                calls.append(fd)
                if point == "dir-fsync" and len(calls) == 2:
                    die()
                return fsync(fd)

            if point == "fsync":
                os.fsync = die
            elif point == "rename":
                os.replace = die
            else:
                os.fsync = counted_fsync
            write()
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == CRASHED


POINTS = ["fsync", "rename", "dir-fsync"]


@pytest.mark.parametrize("point", POINTS)
def test_result_record_survives_crash(tmp_path, point):
    cache = ResultCache(tmp_path)
    key = cache_key("t", {"a": 1})
    cache.put(key, {"result": "old"})
    _crash_during(lambda: cache.put(key, {"result": "new"}), point)
    want = "new" if point == "dir-fsync" else "old"
    assert cache.get(key) == {"result": want}


@pytest.mark.parametrize("point", POINTS)
def test_trace_survives_crash(tmp_path, point):
    path = tmp_path / "t.json.gz"
    AdaptationTrace(meta={"v": "old"}).save(path)
    _crash_during(lambda: AdaptationTrace(meta={"v": "new"}).save(path), point)
    want = "new" if point == "dir-fsync" else "old"
    assert AdaptationTrace.load(path).meta == {"v": want}


@pytest.mark.parametrize("point", POINTS)
def test_checkpoint_survives_crash(tmp_path, point, small_hierarchy):
    store = DurableCheckpointStore(tmp_path, keep=2)
    store.save(4, 4.0, small_hierarchy)
    _crash_during(lambda: store.save(8, 8.0, small_hierarchy), point)
    reopened = DurableCheckpointStore(tmp_path, keep=2)
    ck, _ = reopened.restore()
    assert ck.step == (8 if point == "dir-fsync" else 4)
    assert all(reopened.validate(p)[1] is None for p in reopened.record_paths())
