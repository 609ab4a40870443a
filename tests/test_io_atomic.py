"""The one artifact writer (``repro.io.atomic``) and the guard that keeps it
the only one."""

import re
import sys
import threading
from pathlib import Path

import pytest

from repro.io.atomic import publish, publish_text

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_exception_inside_block_keeps_old_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "artifact.json"
    target.write_bytes(b"old contents")
    with pytest.raises(RuntimeError, match="mid-write"):
        with publish(target) as tmp:
            tmp.write_bytes(b"half of the new cont")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old contents"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]


def test_block_that_writes_nothing_is_an_error_not_an_empty_target(tmp_path):
    target = tmp_path / "artifact.json"
    with pytest.raises(FileNotFoundError):
        with publish(target):
            pass
    assert not target.exists()


def test_success_replaces_target_and_temp_name_is_hidden_from_globs(tmp_path):
    target = tmp_path / "plan-abc.npz"
    target.write_bytes(b"old")
    with publish(target) as tmp:
        assert tmp.parent == tmp_path  # same directory: the rename is atomic
        assert tmp.name.startswith(".") and tmp.name.endswith(".tmp")
        tmp.write_bytes(b"new")
        assert list(tmp_path.glob("plan-*.npz")) == [target]
        assert target.read_bytes() == b"old"  # not visible before the rename
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["plan-abc.npz"]
    publish_text(target, "text")
    assert target.read_text() == "text"


def test_racing_publishers_leave_exactly_one_whole_content(tmp_path):
    target = tmp_path / "job.json"
    contents = [ch * 200_000 for ch in "abcdefgh"]  # 8 writers on 2 cores
    errors = []

    def writer(text):
        try:
            for _ in range(5):
                publish_text(target, text)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(c,)) for c in contents]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert target.read_text() in contents
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]


def test_no_private_artifact_writer_outside_the_io_package():
    """``os.replace`` / ``mkstemp`` / in-place ``Path.write_text`` live in
    ``io/atomic.py`` only, ``np.savez`` only in the two modules that call it
    inside ``publish`` — and ``repro.io`` stays a leaf (no import from the
    rest of the package), so every layer can use it."""
    allowed = {
        r"os\.replace\(|mkstemp\(|\.write_text\(|\.write_bytes\(": {"io/atomic.py"},
        r"savez": {"io/checkpoint.py", "engine/plancache.py"},
        r"savez_compressed": set(),
    }
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        text = path.read_text()
        for pattern, files in allowed.items():
            if rel not in files and re.search(pattern, text):
                offenders.append(f"{rel}: {pattern}")
        if rel.startswith("io/") and re.search(r"^\s*from \.\.|^\s*import repro", text, re.M):
            offenders.append(f"{rel}: imports from outside repro.io")
    assert offenders == []
