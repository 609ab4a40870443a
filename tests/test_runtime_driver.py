"""Driver: system building, scheduled diagnostics, checkpoint-resume equivalence."""

from pathlib import Path

import numpy as np
import pytest

from repro.collisions import BGKCollisions, LBOCollisions
from repro.runtime import Driver, SpecError, build, build_app
from repro.systems import System


def test_build_app_selects_model():
    app = build_app(build("two_stream", nx=4, nv=8))
    assert isinstance(app, System) and app.field_kind == "poisson"
    app = build_app(build("landau_damping", nx=4, nv=8))
    assert isinstance(app, System) and app.field_kind == "maxwell"
    app = build_app(build("advection_1d", nx=4, nv=8))
    assert isinstance(app, System) and app.field_kind == "none"
    assert "em" not in app.state()


def test_build_app_quadrature_scheme():
    app = build_app(build("landau_damping", nx=4, nv=8, scheme="quadrature"))
    assert app.scheme == "quadrature"


def test_build_app_wires_collisions():
    app = build_app(build("collisional_relaxation", nv=8))
    assert isinstance(app.species[0].collisions, LBOCollisions)
    app = build_app(build("collisional_relaxation", nv=8, operator="bgk"))
    assert isinstance(app.species[0].collisions, BGKCollisions)
    assert app.species[0].collisions.nu == pytest.approx(0.8)


def test_declarative_ic_matches_hand_wired(tmp_path):
    """The registry's landau spec reproduces the hand-written quickstart IC."""
    spec = build("landau_damping", k=0.5, amp=1e-3, nx=4, nv=8)
    app = build_app(spec)

    from repro import FieldSpec, Grid, Species
    from repro.systems import MaxwellBlock

    def initial_f(x, v):
        return (1 + 1e-3 * np.cos(0.5 * x)) * np.exp(-(v**2) / 2) / np.sqrt(2 * np.pi)

    hand = System(
        conf_grid=Grid([0.0], [4 * np.pi], [4]),
        species=[
            Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [8]), initial_f)
        ],
        field=MaxwellBlock(
            FieldSpec(initial={"Ex": lambda x: -1e-3 / 0.5 * np.sin(0.5 * x)})
        ),
        poly_order=2,
        cfl=0.6,
    )
    assert np.allclose(app.f["elc"], hand.f["elc"], atol=1e-14)
    assert np.allclose(app.em, hand.em, atol=1e-14)


def test_run_honors_step_cap_and_records_history():
    driver = Driver(build("two_stream", nx=4, nv=8, steps=3, t_end=100.0))
    result = driver.run()
    assert result["status"] == "max_steps"
    assert result["steps"] == 3
    assert len(driver.history.times) == 4  # initial sample + 3 steps
    assert result["energy_drift"] < 1e-8


def test_energy_interval_thins_sampling():
    spec = build(
        "two_stream", nx=4, nv=8, steps=4, t_end=100.0,
        **{"diagnostics.energy_interval": 2},
    )
    driver = Driver(spec)
    driver.run()
    assert len(driver.history.times) == 3  # t=0, step 2, step 4


def test_wall_clock_budget_stops_run(tmp_path):
    spec = build("two_stream", nx=4, nv=8, t_end=1e6)
    driver = Driver(spec, outdir=tmp_path, wall_clock_budget=0.0)
    result = driver.run()
    assert result["status"] == "budget_exhausted"
    assert (tmp_path / "checkpoint.npz").exists()


def test_checkpoint_requires_a_path():
    driver = Driver(build("two_stream", nx=4, nv=8, steps=1))
    with pytest.raises(SpecError):
        driver.checkpoint()


def test_checkpoint_interval_without_path_fails_at_construction():
    """Misconfiguration must surface before any steps are computed."""
    spec = build(
        "two_stream", nx=4, nv=8, **{"diagnostics.checkpoint_interval": 2}
    )
    with pytest.raises(SpecError) as err:
        Driver(spec)  # no outdir, no checkpoint_path
    assert "checkpoint" in err.value.field


def test_killed_then_resumed_run_matches_uninterrupted(tmp_path, monkeypatch):
    """The acceptance property: resume reproduces the uninterrupted state —
    without projecting an initial condition it would only overwrite."""
    from repro.systems import KineticSpecies

    projected = []
    project = KineticSpecies.project_initial
    monkeypatch.setattr(
        KineticSpecies, "project_initial",
        lambda blk: projected.append(blk.name) or project(blk),
    )
    common = dict(nx=6, nv=12, t_end=100.0)

    ref = Driver(build("two_stream", steps=8, **common), outdir=tmp_path / "ref")
    ref.run()
    assert projected == ["elc"]  # a fresh run projects once per species

    # "kill" after 4 steps: the step cap stops the driver mid-simulation,
    # leaving the periodic checkpoint behind
    killed = Driver(
        build(
            "two_stream", steps=4, **common,
            **{"diagnostics.checkpoint_interval": 4},
        ),
        outdir=tmp_path / "killed",
    )
    assert killed.run()["status"] == "max_steps"

    def no_projection(blk):
        raise AssertionError(f"resume projected the initial condition of {blk.name}")

    monkeypatch.setattr(KineticSpecies, "project_initial", no_projection)
    resumed = Driver.from_checkpoint(
        tmp_path / "killed" / "checkpoint.npz",
        outdir=tmp_path / "resumed",
        overrides={"steps": 8},
    )
    assert resumed.app.step_count == 4
    result = resumed.run()
    assert result["steps"] == 8

    assert resumed.app.time == ref.app.time
    ref_state, res_state = ref.app.state(), resumed.app.state()
    assert set(ref_state) == set(res_state)
    for key in ref_state:
        assert np.array_equal(ref_state[key], res_state[key]), key
    # diagnostics history survives the kill/resume seam too
    assert np.array_equal(ref.history.times, resumed.history.times)
    assert np.array_equal(ref.history.field_energy, resumed.history.field_energy)


def _assert_same_run(ref, got):
    """State, clock and diagnostics history are bitwise equal."""
    assert got.app.time == ref.app.time
    ref_state, got_state = ref.app.state(), got.app.state()
    assert set(ref_state) == set(got_state)
    for key in ref_state:
        assert np.array_equal(ref_state[key], got_state[key]), key
    assert np.array_equal(ref.history.times, got.history.times)
    assert np.array_equal(ref.history.field_energy, got.history.field_energy)
    for name, vals in ref.history.particle_energy.items():
        assert np.array_equal(vals, got.history.particle_energy[name]), name


def test_kill_inside_checkpoint_writer_keeps_last_good_checkpoint(tmp_path):
    """SIGKILL in the middle of the *second* checkpoint write: the file under
    ``checkpoint.npz`` is still the complete first one (step 2), and resuming
    from it reproduces the uninterrupted run bit for bit.  Both spellings of
    the numpy writer are wrapped, so an in-place write is torn by the same
    test."""
    import os
    import signal
    import subprocess
    import sys

    from repro.io import load_checkpoint

    script = """
import io, os, signal, sys
sys.path.insert(0, {src!r})
import numpy as np
from repro.runtime import Driver, build

calls = []
def tearing(real):
    def wrapped(file, **payload):
        if "meta_json" not in payload:  # a plan-cache entry, not a checkpoint
            return real(file, **payload)
        calls.append(1)
        if len(calls) < 2:
            return real(file, **payload)
        whole = io.BytesIO()
        real(whole, **payload)
        fh = file if hasattr(file, "write") else open(file, "wb")
        fh.write(whole.getvalue()[: whole.tell() // 3])
        fh.flush()
        os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)
    return wrapped
np.savez = tearing(np.savez)
np.savez_compressed = tearing(np.savez_compressed)

spec = build(
    "two_stream", nx=6, nv=12, t_end=100.0, steps=8,
    **{{"diagnostics.checkpoint_interval": 2}},
)
Driver(spec, outdir={outdir!r}).run()
""".format(src=str(Path(__file__).resolve().parents[1] / "src"),
           outdir=str(tmp_path / "killed"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr

    ckpt = tmp_path / "killed" / "checkpoint.npz"
    _, meta = load_checkpoint(ckpt)
    assert meta["step_count"] == 2

    ref = Driver(build("two_stream", nx=6, nv=12, t_end=100.0, steps=8))
    ref.run()
    resumed = Driver.from_checkpoint(ckpt, outdir=tmp_path / "resumed")
    assert resumed.run()["steps"] == 8
    _assert_same_run(ref, resumed)


def test_checkpoint_written_the_pre_pr21_way_resumes_bit_identically(tmp_path):
    """PRs 4-20 wrote the same members through ``np.savez_compressed``;
    such a file (built here, not committed) still loads and resumes."""
    import json

    from repro.io import load_checkpoint

    common = dict(nx=4, nv=8, t_end=100.0)
    ref = Driver(build("two_stream", steps=6, **common))
    ref.run()
    Driver(build("two_stream", steps=3, **common), outdir=tmp_path).run()
    state, meta = load_checkpoint(tmp_path / "checkpoint.npz")

    def as_bytes(obj, **kw):
        return np.frombuffer(json.dumps(obj, **kw).encode(), dtype=np.uint8)

    keys = list(state)
    np.savez_compressed(
        tmp_path / "old.npz",
        **{f"state_{i}": state[k] for i, k in enumerate(keys)},
        state_keys_json=as_bytes(keys),
        meta_json=as_bytes(meta, sort_keys=True),
    )
    resumed = Driver.from_checkpoint(tmp_path / "old.npz", overrides={"steps": 6})
    resumed.run()
    _assert_same_run(ref, resumed)


def test_resume_maxwell_model(tmp_path):
    common = dict(nx=4, nv=8, t_end=100.0)
    ref = Driver(build("landau_damping", steps=6, **common))
    ref.run()

    part = Driver(build("landau_damping", steps=3, **common), outdir=tmp_path)
    part.run()
    resumed = Driver.from_checkpoint(tmp_path / "checkpoint.npz", overrides={"steps": 6})
    resumed.run()
    assert np.array_equal(ref.app.em, resumed.app.em)
    assert np.array_equal(ref.app.f["elc"], resumed.app.f["elc"])


def test_summary_is_json_serializable(tmp_path):
    import json

    result = Driver(build("free_streaming", nx=4, nv=8, steps=2)).run()
    json.dumps(result)
    assert result["scenario"] == "free_streaming"


def test_summary_reports_plan_stats():
    result = Driver(build("two_stream", nx=4, nv=8, steps=1)).run()
    plans = result["plans"]
    assert plans["compiled"] + plans["hydrated"] > 0
    assert plans["cache_hits"] == plans["hydrated"]
    assert plans["compile_seconds"] >= 0.0


def test_second_driver_hydrates_from_disk_cache(tmp_path):
    """A warm cache turns every plan compile into a hydrate, bit-identically."""
    kwargs = dict(nx=4, nv=8, steps=2, **{"plan_cache": str(tmp_path)})

    cold = Driver(build("two_stream", **kwargs))
    cold_result = cold.run()
    assert cold_result["plans"]["compiled"] > 0
    assert cold_result["plans"]["cache_stores"] > 0

    warm = Driver(build("two_stream", **kwargs))
    warm_result = warm.run()
    assert warm_result["plans"]["compiled"] == 0
    assert warm_result["plans"]["hydrated"] == cold_result["plans"]["compiled"]
    assert warm_result["plans"]["cache_hits"] == warm_result["plans"]["hydrated"]

    for key, ref in cold.app.state().items():
        assert np.array_equal(ref, warm.app.state()[key]), key


def test_resume_from_checkpoint_with_legacy_plan_mode(tmp_path):
    """Checkpoints written before the executors were merged embed
    ``"plan_mode"`` in their spec, and ones written before the ``threaded``
    backend was deleted may name it; they still resume, bit-identically."""
    from repro.io import load_checkpoint, save_checkpoint

    common = dict(nx=4, nv=8, t_end=100.0)
    ref = Driver(build("two_stream", steps=6, **common))
    ref.run()

    Driver(build("two_stream", steps=3, **common), outdir=tmp_path).run()
    state, meta = load_checkpoint(tmp_path / "checkpoint.npz")
    assert "plan_mode" not in meta["spec"]
    meta["spec"]["plan_mode"] = "interpreted"
    meta["spec"]["backend"] = "threaded:2"
    save_checkpoint(tmp_path / "legacy.npz", state, meta)

    resumed = Driver.from_checkpoint(tmp_path / "legacy.npz", overrides={"steps": 6})
    resumed.run()
    assert "plan_mode" not in resumed.spec.to_dict()
    assert resumed.spec.backend == "numpy"
    for key, want in ref.app.state().items():
        assert np.array_equal(want, resumed.app.state()[key]), key
