"""Bits that are meant to stay put across PRs (ROADMAP item 1, first rows).

``golden_digests.json`` holds, per row, the sha256 of the final state and
of the diagnostics stream of a 12-step run, generated at the commit named
in the file.  A row is keyed by its scenario (a serial run of the scenario
as registered) or names it and carries extra CLI arguments (``args``:
another stepper, ``--backend process:2``) and pytest marks.  A change that
moves bits on purpose regenerates the table and says so; any other change
must leave this test green — on the kernel tier the environment selects, so
the ``REPRO_KERNEL_TIER=numpy`` CI leg checks the other tier against the
same table.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.io import load_checkpoint
from repro.runtime.cli import main

GOLDEN = {
    name: digests
    for name, digests in json.loads(
        (Path(__file__).parent / "golden_digests.json").read_text()
    ).items()
    if not name.startswith("_")
}


ROWS = [
    pytest.param(
        name, marks=[getattr(pytest.mark, mark) for mark in row.get("marks", ())]
    )
    for name, row in sorted(GOLDEN.items())
]


@pytest.mark.parametrize("name", ROWS)
def test_run_ends_in_the_pinned_bits(name, tmp_path, capsys):
    row = GOLDEN[name]
    args = ["run", row.get("scenario", name), *row.get("args", ())]
    args += ["--set", "steps=12", "--set", "plan_cache=off"]
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    state, _meta = load_checkpoint(tmp_path / "checkpoint.npz")
    h = hashlib.sha256()
    for key in sorted(state):
        h.update(key.encode())
        h.update(state[key].tobytes())
    got = {
        "state": h.hexdigest(),
        "diagnostics": hashlib.sha256(
            (tmp_path / "diagnostics.jsonl").read_bytes()
        ).hexdigest(),
    }
    assert got == {key: row[key] for key in got}
