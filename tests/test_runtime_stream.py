"""Incremental JSONL diagnostics streaming and backend selection through the
runtime layer (spec field, CLI flag)."""

import json

import pytest

from repro.runtime import Driver, SpecError, build
from repro.runtime.cli import main


def _read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def test_driver_streams_diagnostics_jsonl(tmp_path):
    spec = build("two_stream", nx=4, nv=8, steps=4)
    driver = Driver(spec, outdir=tmp_path)
    driver.run()
    path = tmp_path / "diagnostics.jsonl"
    assert driver.stream_path == path
    records = _read_jsonl(path)
    # one record per history entry, matching the in-memory history exactly
    assert len(records) == len(driver.history.times)
    assert [r["time"] for r in records] == driver.history.times
    assert [r["field_energy"] for r in records] == driver.history.field_energy
    assert records[-1]["step"] == driver.app.step_count
    assert records[0]["particle_energy"]["elc"] == driver.history.particle_energy["elc"][0]


def test_stream_path_spec_override(tmp_path):
    target = tmp_path / "sub" / "diag.jsonl"
    spec = build("two_stream", nx=4, nv=8, steps=2).with_overrides(
        {"diagnostics.stream_path": str(target)}
    )
    Driver(spec).run()
    assert len(_read_jsonl(target)) == 3  # t=0 plus two steps


def test_stream_appends_across_resume(tmp_path):
    spec = build("two_stream", nx=4, nv=8, steps=2)
    Driver(spec, outdir=tmp_path).run()
    n_first = len(_read_jsonl(tmp_path / "diagnostics.jsonl"))
    resumed = Driver.from_checkpoint(
        tmp_path / "checkpoint.npz", outdir=tmp_path, overrides={"steps": 4}
    )
    resumed.run()
    records = _read_jsonl(tmp_path / "diagnostics.jsonl")
    assert len(records) > n_first
    assert records[-1]["step"] == 4


def test_fresh_run_truncates_stale_stream(tmp_path):
    """A new (non-resumed) driver must not append after an older run's
    records; only checkpoint resumes continue the file."""
    spec = build("two_stream", nx=4, nv=8, steps=2)
    Driver(spec, outdir=tmp_path).run()
    first = _read_jsonl(tmp_path / "diagnostics.jsonl")
    Driver(spec, outdir=tmp_path).run()
    again = _read_jsonl(tmp_path / "diagnostics.jsonl")
    assert len(again) == len(first)
    assert again[0]["time"] == 0.0


def test_no_streaming_without_outdir_or_path():
    spec = build("two_stream", nx=4, nv=8, steps=1)
    driver = Driver(spec)
    assert driver.stream_path is None
    driver.run()  # must not crash


# --------------------------------------------------------------------- #
def test_spec_backend_roundtrip_and_validation(capsys):
    """``backend`` is ``numpy | process | process:<N >= 1>``: one parser, every
    other value a ``SpecError`` at ``spec.backend`` (CLI exit 2)."""
    import os

    from repro.runtime.spec import SimulationSpec, parse_backend

    spec = build("two_stream", nx=4, nv=8)
    assert spec.backend == "numpy"
    cpus = os.cpu_count() or 1
    for value, shards in [
        ("numpy", None), ("process", cpus), ("process:1", 1), ("process:4", 4),
    ]:
        assert parse_backend(value) == shards
        again = SimulationSpec.from_dict(spec.with_overrides({"backend": value}).to_dict())
        assert again.backend == again.to_dict()["backend"] == value
    for bad in [
        None, 3, True, ["numpy"], "", "cuda", "gpu", "NumPy", "numpy:3", "numpy:",
        "process:", "process: 2", " process:2", "process:2 ", "process:0",
        "process:-1", "process:two", "process:2.0", "process:2:2",
        "threaded:0", "threaded:four", "threaded:", "threaded: 2",
    ]:
        for load in (
            lambda: spec.with_overrides({"backend": bad}),
            lambda: SimulationSpec.from_dict({**spec.to_dict(), "backend": bad}),
        ):
            with pytest.raises(SpecError, match="numpy, process or process:<N>") as err:
                load()
            assert err.value.field == "spec.backend", bad
    # legacy value in stored specs: loads as numpy, is never written back
    for legacy in ("threaded", "threaded:2", "threaded:16"):
        loaded = SimulationSpec.from_dict({**spec.to_dict(), "backend": legacy})
        assert loaded == spec and loaded.to_dict()["backend"] == "numpy"
    # the CLI reports the grammar, not a Python TypeError text
    assert main(["run", "two_stream", "--set", "backend=numpy:3", "--set", "steps=1"]) == 2
    stderr = capsys.readouterr().err
    assert "spec.backend" in stderr and "process:<N>" in stderr
    assert "TypeError" not in stderr and "positional" not in stderr


def test_cli_backend_flag(tmp_path, capsys):
    rc = main(
        [
            "run", "two_stream", "--backend", "numpy", "--json",
            "--set", "steps=2", "--set", "nx=4", "--set", "nv=8",
            "--outdir", str(tmp_path),
        ]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["steps"] == 2
    assert (tmp_path / "diagnostics.jsonl").exists()


def test_cli_rejects_unknown_backend(capsys):
    rc = main(["run", "two_stream", "--backend", "gpu", "--set", "steps=1"])
    assert rc == 2
    assert "backend" in capsys.readouterr().err
