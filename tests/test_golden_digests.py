"""Bits that are meant to stay put across PRs (ROADMAP item 1, first rows).

``golden_digests.json`` holds, per scenario, the sha256 of the final state
and of the diagnostics stream of a 12-step serial run, generated at the
commit named in the file.  A change that moves bits on purpose regenerates
the table and says so; any other change must leave this test green — on the
kernel tier the environment selects, so the ``REPRO_KERNEL_TIER=numpy`` CI
leg checks the other tier against the same table.
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


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_run_ends_in_the_pinned_bits(scenario, tmp_path, capsys):
    args = ["run", scenario, "--set", "steps=12", "--set", "plan_cache=off"]
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
    assert got == GOLDEN[scenario]
