"""CLI: list/show/run/resume/campaign subcommands end to end."""

import json

import numpy as np
import pytest

from repro.cas.codegen import select_tier
from repro.runtime.cli import main


def test_list_shows_all_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "landau_damping", "two_stream", "weibel_2x2v",
        "bump_on_tail", "collisional_relaxation", "free_streaming",
    ):
        assert name in out


def test_list_verbose_shows_params(capsys):
    assert main(["list", "--verbose"]) == 0
    assert "drift" in capsys.readouterr().out


def test_show_emits_valid_spec_json(capsys):
    assert main(["show", "two_stream", "--set", "drift=1.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["species"][0]["initial"]["drift"] == 1.5


def test_run_with_overrides(capsys, tmp_path):
    code = main([
        "run", "two_stream",
        "--set", "steps=2", "--set", "nx=4", "--set", "nv=8",
        "--outdir", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status        : max_steps" in out
    assert (tmp_path / "checkpoint.npz").exists()


def test_run_json_output(capsys):
    code = main([
        "run", "free_streaming", "--set", "steps=1",
        "--set", "nx=4", "--set", "nv=8", "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["steps"] == 1 and result["status"] == "max_steps"


def test_resume_continues_from_checkpoint(capsys, tmp_path):
    assert main([
        "run", "two_stream",
        "--set", "steps=2", "--set", "nx=4", "--set", "nv=8",
        "--set", "t_end=100.0", "--outdir", str(tmp_path), "--json",
    ]) == 0
    capsys.readouterr()
    assert main([
        "resume", str(tmp_path / "checkpoint.npz"), "--set", "steps=4", "--json",
    ]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["steps"] == 4


def _truncate(path, state, meta):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])


def _flip_one_byte(path, state, meta):
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def _json_member(obj):
    return np.frombuffer(json.dumps(obj).encode(), dtype=np.uint8)


def _untagged_mode_major(path, state, meta):
    """What the code before the cell-major layout wrote: basis axis first,
    no ``layout`` tag."""
    meta = {k: v for k, v in meta.items() if k != "layout"}
    state = {
        k: np.moveaxis(v, 1, 0) if k.startswith("f/") else v for k, v in state.items()
    }
    keys = list(state)
    np.savez(
        path,
        **{f"state_{i}": state[k] for i, k in enumerate(keys)},
        state_keys_json=_json_member(keys),
        meta_json=_json_member(meta),
    )


def _munged_key_names(path, state, meta):
    """The format before the key manifest: ``state__f__elc`` member names."""
    np.savez(
        path,
        **{"state__" + k.replace("/", "__"): v for k, v in state.items()},
        meta_json=_json_member(meta),
    )


def test_a_diverged_run_exits_1(capsys, tmp_path):
    """``run`` and ``resume`` exit 1 on status ``diverged`` (2 stays a bad
    spec or checkpoint): cfl=2 blows weibel up, a NaN resumes as one."""
    from repro.io import load_checkpoint, save_checkpoint

    small = ["--set", "nx=4", "--set", "nv=6", "--set", "poly_order=1"]
    assert main([
        "run", "weibel_2x2v", *small, "--set", "cfl=2.0",
        "--set", "steps=1000", "--set", "t_end=1e9", "--json",
    ]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "diverged"
    assert main([
        "run", "weibel_2x2v", *small, "--set", "steps=2",
        "--outdir", str(tmp_path),
    ]) == 0
    ckpt = tmp_path / "checkpoint.npz"
    state, meta = load_checkpoint(ckpt)
    state["f/elc"].flat[0] = np.nan
    save_checkpoint(ckpt, state, meta)
    capsys.readouterr()
    assert main(["resume", str(ckpt), "--set", "steps=4", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "diverged"


def test_a_poisson_run_that_loses_neutrality_ends_diverged(capsys, tmp_path):
    """cfl=2 blows two_stream up: its charge stops being neutral before its
    state stops being finite.  ``run`` and ``resume`` end ``diverged`` with
    exit 1 and no traceback, and the last checkpoint on disk is a finite
    state; a non-neutral initial condition stays an error at set-up."""
    from repro.fields import NonNeutralError
    from repro.io import load_checkpoint
    from repro.runtime import Driver, build

    small = ["--set", "nx=4", "--set", "nv=8", "--set", "cfl=2"]
    args = ["--set", "steps=3000", "--set", "t_end=1e9", "--json"]
    assert main([
        "run", "two_stream", *small, *args,
        "--set", "diagnostics.checkpoint_interval=5", "--outdir", str(tmp_path),
    ]) == 1
    result = json.loads(capsys.readouterr().out)
    assert result["status"] == "diverged" and 0 < result["steps"] < 3000
    ckpt = tmp_path / "checkpoint.npz"
    state, meta = load_checkpoint(ckpt)
    assert 0 < meta["step_count"] <= result["steps"] and meta["step_count"] % 5 == 0
    assert all(np.isfinite(v).all() for v in state.values())
    assert main(["resume", str(ckpt), *args, "--outdir", str(tmp_path / "resumed")]) == 1
    assert json.loads(capsys.readouterr().out)["status"] == "diverged"
    with pytest.raises(NonNeutralError):
        Driver(build("two_stream", nx=4, nv=8, steps=2, neutralize=False)).run()


@pytest.mark.parametrize(
    "damage", [_truncate, _flip_one_byte, _untagged_mode_major, _munged_key_names]
)
def test_resume_from_a_damaged_or_foreign_checkpoint_is_one_error_line(
    damage, capsys, tmp_path
):
    from repro.io import load_checkpoint

    assert main([
        "run", "two_stream",
        "--set", "steps=2", "--set", "nx=4", "--set", "nv=8",
        "--set", "t_end=100.0", "--outdir", str(tmp_path), "--json",
    ]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "checkpoint.npz"
    damage(ckpt, *load_checkpoint(ckpt))
    assert main(["resume", str(ckpt), "--set", "steps=4", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {ckpt}: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_campaign_subcommand(capsys, tmp_path):
    camp = {
        "name": "clitest",
        "scenario": "two_stream",
        "base": {"nx": 4, "nv": 8, "steps": 1, "t_end": 100.0},
        "scan": {"drift": [1.5, 2.0]},
    }
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(camp))
    outdir = tmp_path / "out"
    assert main(["campaign", str(path), "--outdir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert "2 ran, 0 skipped" in out
    assert (outdir / "manifest.json").exists()
    assert main(["campaign", str(path), "--outdir", str(outdir)]) == 0
    assert "0 ran, 2 skipped" in capsys.readouterr().out


def test_plans_warm_list_clear_cycle(capsys, tmp_path):
    cache = tmp_path / "plans"
    assert main([
        "plans", "warm", "free_streaming", "--cache", str(cache),
        "--set", "nx=4", "--set", "nv=8",
    ]) == 0
    out = capsys.readouterr().out
    assert "compiled" in out

    assert main(["plans", "list", "--cache", str(cache), "--json"]) == 0
    listing = json.loads(capsys.readouterr().out)
    assert listing["plans"], "warm left no plan entries behind"
    assert all(e["status"] == "ok" for e in listing["plans"])

    # a second warm against the same cache hydrates instead of compiling
    assert main([
        "plans", "warm", "free_streaming", "--cache", str(cache),
        "--set", "nx=4", "--set", "nv=8",
    ]) == 0
    assert "compiled 0" in capsys.readouterr().out

    assert main(["plans", "clear", "--cache", str(cache)]) == 0
    capsys.readouterr()
    assert main(["plans", "list", "--cache", str(cache), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["plans"] == []


def test_plans_cache_off_is_a_clean_error(capsys):
    assert main(["plans", "list", "--cache", "off"]) == 2
    assert "cache" in capsys.readouterr().err


def test_unknown_scenario_is_a_clean_error(capsys):
    assert main(["run", "tokamak"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_bad_set_syntax_is_a_clean_error(capsys):
    assert main(["run", "two_stream", "--set", "steps"]) == 2
    assert "key=value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, override, field",
    [
        ("weibel_2x2v", "field.initial.Bz=3", "spec.field.initial.Bz"),
        ("driven_landau", "external_field.components.Ex=3", "spec.external_field.components.Ex"),
        ("two_stream", "species.0.initial.kind=[1]", "spec.species[0].initial.kind"),
    ],
)
def test_malformed_profile_is_a_clean_error(capsys, scenario, override, field):
    """A profile that is not an object, or whose kind is not a name, is one
    ``error:`` line naming the dotted path (exit 2), not a traceback."""
    assert main(["show", scenario, "--set", override]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "scenario, overrides, error",
    [
        (
            "collisional_relaxation",
            ["species.elc.collisions.kind=bgk"],
            "spec.species[0].collisions.kind: the BGK collision operator was removed; use 'lbo'",
        ),
        ("collisional_relaxation", ["operator=bgk"], "operator: unknown field 'operator'"),
    ],
    ids=["bgk-kind", "operator-param"],
)
def test_a_collision_the_cell_program_cannot_run_is_a_clean_error(
    capsys, scenario, overrides, error
):
    """Collisions are the LBO in a modal species' cell program: the removed
    BGK kind and the dropped ``operator`` parameter are each one ``error:``
    line (exit 2)."""
    argv = ["run", scenario]
    for override in overrides:
        argv += ["--set", override]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def test_missing_campaign_file_is_a_clean_error(capsys, tmp_path):
    assert main(["campaign", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def _modules_left_loaded(code, *argv):
    """Run ``code`` in a fresh interpreter on this checkout's sources and
    return the loaded module names it prints last."""
    import ast
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip().splitlines()[-1])


def test_importing_the_runtime_stays_light():
    """``import repro.runtime`` (every CLI command, every serve job) pulls in
    neither the sharding / serving layers nor any of scipy; those load when
    a spec or the numpy kernel tier asks for them."""
    heavy = ["multiprocessing", "http.server", "repro.serve", "repro.dist"]
    loaded = _modules_left_loaded(
        "import sys, repro.runtime\n"
        f"print([m for m in sys.modules if m in {heavy!r} or m.startswith('scipy')])"
    )
    assert loaded == []


@pytest.mark.skipif(
    select_tier() != "cc", reason="the numpy tier sweeps with scipy's csr_matvecs"
)
def test_a_compiled_tier_run_never_loads_scipy(tmp_path):
    """Build, run, diagnostics and checkpoint of a compiled-tier run, on a
    cold and then a warm plan cache, leave no scipy module loaded."""
    code = (
        "import sys\n"
        "from repro.runtime.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "print([m for m in sys.modules if m.startswith('scipy')])"
    )
    argv = [
        "run", "two_stream", "--set", "steps=3",
        "--set", f"plan_cache={tmp_path / 'cache'}", "--outdir", str(tmp_path / "out"),
    ]
    assert _modules_left_loaded(code, *argv) == []  # cold: compile, publish
    assert list((tmp_path / "cache").glob("plan-*.npz"))
    assert _modules_left_loaded(code, *argv) == []  # warm: hydrate
    assert (tmp_path / "out" / "checkpoint.npz").is_file()
