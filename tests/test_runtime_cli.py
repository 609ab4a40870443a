"""CLI: list/show/run/resume/campaign subcommands end to end."""

import json

import numpy as np
import pytest

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


def test_missing_campaign_file_is_a_clean_error(capsys, tmp_path):
    assert main(["campaign", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_importing_the_runtime_stays_light():
    """``import repro.runtime`` (every CLI command, every serve job) pulls in
    neither the sharding / serving layers nor dense LAPACK bindings; those
    load when a spec asks for them."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    heavy = ["scipy.linalg", "multiprocessing", "http.server", "repro.serve", "repro.dist"]
    script = (
        "import sys, repro.runtime\n"
        f"print([m for m in {heavy!r} if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
