"""The bit-identity matrix: every way of running a golden row ends in its bits.

A continuum DG run has no counting noise, so it is a deterministic function
of its spec, and every execution path must give the same bytes.
``golden_digests.json`` is the one table of that invariant.  A row is a
scenario (``scenario``, else the row's name) with extra CLI ``args``, and
the sha256 of the final state and of the diagnostics stream of its
*reference* run: 12 steps, serial, ``plan_cache=off``, on the kernel tier
the environment selects (the ``REPRO_KERNEL_TIER=numpy`` CI leg runs every
cell on the numpy tier against the same table).  Each row lists the
``ways`` it must also be run; a way changes one axis of the reference and
must end in the same two digests:

``process:N``          N shard processes (``--backend process:N``; ``shard`` mark)
``numpy``              the numpy kernel tier (``compiler_config(tier="numpy")``)
``warm``               a second run into one plan cache, which compiles nothing
``resume``             6 steps, then ``repro resume`` to 12 on the same backend,
                       projecting no initial condition
``resume:process:N``   the same, resumed on N shard processes
``trace``              ``observability.mode=trace``

A way sits on the rows where it reaches a distinct code path: ``process:N``
on every row with enough cells, the numpy tier on a row of each field
closure (Maxwell, Poisson, none) and of the LBO.  Each (row, way) cell is
one test id: the row's name for the reference cell, ``<row>/<way>`` for the
others.  The thread axis is CI's "Pinned bits on one CPU" step, which runs
this file under ``taskset -c 0``.  A change that moves bits on purpose
regenerates the digests (recipe in the table) and says why in each row's
``note``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine import compiler_config
from repro.io import load_checkpoint
from repro.runtime.cli import main
from repro.systems import KineticSpecies

ROWS = {
    name: row
    for name, row in json.loads(
        (Path(__file__).parent / "golden_digests.json").read_text()
    ).items()
    if not name.startswith("_")
}

CELLS = [
    pytest.param(
        name, way, id=name if way is None else f"{name}/{way}",
        marks=[pytest.mark.shard] if way and "process:" in way else [],
    )
    for name, row in sorted(ROWS.items())
    for way in (None, *row.get("ways", ()))
]


def _digests(outdir):
    state, _meta = load_checkpoint(outdir / "checkpoint.npz")
    h = hashlib.sha256()
    for key in sorted(state):
        h.update(key.encode())
        h.update(state[key].tobytes())
    return {
        "state": h.hexdigest(),
        "diagnostics": hashlib.sha256(
            (outdir / "diagnostics.jsonl").read_bytes()
        ).hexdigest(),
    }


@pytest.mark.parametrize("name,way", CELLS)
def test_run_ends_in_the_pinned_bits(
    name, way, tmp_path, capsys, monkeypatch, fresh_cache
):
    row = ROWS[name]
    out = tmp_path / "out"

    def cli(*argv, steps=12, plan_cache="off"):
        argv += ("--set", f"steps={steps}", "--set", f"plan_cache={plan_cache}")
        assert main([*argv, "--outdir", str(out), "--json"]) == 0
        return json.loads(capsys.readouterr().out)

    run = ("run", row.get("scenario", name), *row.get("args", ()))
    if way is None:
        cli(*run)
    elif way.startswith("process:"):
        cli(*run, "--backend", way)
    elif way == "numpy":
        with compiler_config(tier="numpy"):
            cli(*run)
    elif way == "warm":
        cache = fresh_cache()
        cold = cli(*run, plan_cache=cache)["plans"]
        warm = cli(*run, plan_cache=cache)["plans"]
        assert warm["compiled"] == 0, warm
        assert warm["hydrated"] == cold["compiled"] + cold["hydrated"], (cold, warm)
    elif way.startswith("resume"):
        cli(*run, steps=6)

        def refuse(block):
            raise AssertionError(f"a resume projected {block.name}'s initial condition")

        monkeypatch.setattr(KineticSpecies, "project_initial", refuse)
        backend = way.partition(":")[2]  # "" resumes on the reference backend
        on = ("--backend", backend) if backend else ()
        cli("resume", str(out / "checkpoint.npz"), *on)
    elif way == "trace":
        cli(*run, "--set", "observability.mode=trace")
    else:
        raise ValueError(f"{name}: unknown way {way!r}")
    assert _digests(out) == {"state": row["state"], "diagnostics": row["diagnostics"]}
