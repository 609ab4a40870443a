"""Schema gate for the perf ledger (runs no simulation).

``BENCHMARK.json`` at the repo root, the harness's own registry and
``run.py --list`` must describe the same benchmark, within the limits the
benchmark contract sets.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import registry

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _doc():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_registry():
    doc = _doc()
    assert doc == registry.benchmark_json(doc["run_seconds"])
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_limits_and_names():
    doc = _doc()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_paths_and_command_stay_inside_the_benchmark():
    doc = _doc()
    assert 1 <= len(doc["paths"]) <= 16
    for path in doc["paths"]:
        assert re.match(r"^[A-Za-z0-9_./-]{1,200}$", path)
        assert not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    assert len(doc["command"]) <= 32
    script = doc["command"][-1]
    assert any(script.startswith(p.rstrip("/") + "/") for p in doc["paths"])
    assert (ROOT / script).is_file()


def test_every_layer_metric_names_what_it_moves():
    e2e = {m.name for m in registry.END_TO_END}
    workloads = {w.name for w in registry.WORKLOADS}
    for m in registry.PER_LAYER:
        assert m.moves in e2e, m.name
        assert m.on and set(m.on) <= workloads, m.name
        assert "." in m.name and (ROOT / "src" / "repro" / m.layer).is_dir(), m.name


def test_list_prints_the_registry():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--list"],
        capture_output=True, text=True, timeout=60, check=True,
    ).stdout
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    doc = _doc()
    declared = {e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in doc[key]}
    assert listed == declared
