"""Fused-plan lowering and the content-addressed plan cache.

The invariant under test everywhere: a fused plan (any kernel tier) is
**bitwise identical** to the interpreted ExecutionPlan it lowers, and a
plan hydrated from the disk cache is bitwise identical to a fresh compile
— so the cache and the codegen can never change an answer, only its cost.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cas.codegen import (
    cc_available,
    compile_kernel,
    emit_fused_sweep_source,
    select_tier,
)
from repro.engine.compile import (
    STATS,
    CompilerConfig,
    compile_plan,
    compiler_config,
    configure,
)
from repro.engine.fused import FusedPlan
from repro.engine.plan import ExecutionPlan, aux_signature, plan_digest
from repro.engine.plancache import PlanCache, resolve_cache_root
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet

CDIM, VDIM = 1, 1
NCX, NCV = 3, 4


def random_termset(rng, nout=5, nin=6, nterms=7):
    """A random mixed termset: uniform, velocity-weighted, scalar-scaled,
    and configuration-varying symbol groups (the shapes real generated
    kernels produce, with random sparsity)."""

    def triples(n):
        return [
            (int(rng.integers(nout)), int(rng.integers(nin)),
             float(rng.standard_normal()))
            for _ in range(n)
        ]

    entries = {
        (): triples(nterms),
        ("w0",): triples(nterms),
        ("w1", "s0"): triples(nterms),
        ("c0",): triples(nterms),
    }
    return TermSet(nout, nin, entries)


def random_aux(rng):
    return {
        "w0": rng.standard_normal((1, NCV)),
        "w1": rng.standard_normal((1, NCV)),
        "s0": float(rng.standard_normal()),
        "c0": rng.standard_normal((NCX, 1)),
    }


def apply_with(ts, aux, f_cm, mode, tier="auto", cache="off"):
    """One fresh GroupedOperator application under a scoped config."""
    with compiler_config(mode=mode, tier=tier, cache=cache):
        op = GroupedOperator(ts, CDIM, VDIM)
        out = np.zeros((NCX, ts.nout, NCV))
        op.apply(f_cm, aux, out)
    return out


@pytest.fixture(scope="module")
def case(rng):
    ts = random_termset(rng)
    aux = random_aux(rng)
    f_cm = rng.standard_normal((NCX, ts.nin, NCV))
    return ts, aux, f_cm


# --------------------------------------------------------------------- #
# lowering equivalence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", ["numpy", "cc", "auto"])
def test_fused_bitwise_matches_interpreted(case, tier):
    if tier == "cc" and cc_available() is None:
        pytest.skip("no C compiler")
    ts, aux, f_cm = case
    ref = apply_with(ts, aux, f_cm, "interpreted")
    got = apply_with(ts, aux, f_cm, "fused", tier=tier)
    assert np.array_equal(ref, got)


def test_fused_bitwise_on_many_random_termsets(rng):
    """Property check: fused == interpreted bitwise across random sparsity
    patterns, including degenerate ones (empty groups, repeated entries)."""
    for trial in range(10):
        ts = random_termset(rng, nout=int(rng.integers(2, 7)),
                            nin=int(rng.integers(2, 7)),
                            nterms=int(rng.integers(1, 9)))
        aux = random_aux(rng)
        f_cm = rng.standard_normal((NCX, ts.nin, NCV))
        ref = apply_with(ts, aux, f_cm, "interpreted")
        got = apply_with(ts, aux, f_cm, "fused")
        assert np.array_equal(ref, got), f"trial {trial} diverged"


def test_fused_accumulate_and_assign(case):
    ts, aux, f_cm = case
    with compiler_config(mode="fused", cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        base = np.ones((NCX, ts.nout, NCV))
        acc = base.copy()
        op.apply(f_cm, aux, acc, accumulate=True)
        fresh = np.zeros_like(base)
        op.apply(f_cm, aux, fresh, accumulate=False)
    # accumulate interleaves term adds with the base, so (acc - base) and
    # fresh differ in summation order — tight tolerance, not bitwise
    assert np.allclose(acc - base, fresh, rtol=1e-13, atol=1e-13)
    # accumulate into zeros IS bitwise assign
    zacc = np.zeros_like(base)
    op2 = GroupedOperator(ts, CDIM, VDIM)
    with compiler_config(mode="fused", cache="off"):
        op2.apply(f_cm, aux, zacc, accumulate=True)
    assert np.allclose(zacc, fresh, rtol=1e-13, atol=1e-13)


def test_fused_tracks_inplace_aux_mutation(case, rng):
    """Velocity factors and cfg coefficients mutated *in place* (same array
    objects — the identity fast path stays hot) must be re-read per apply."""
    ts, _, f_cm = case
    aux = random_aux(rng)
    with compiler_config(mode="fused", cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        out = np.zeros((NCX, ts.nout, NCV))
        op.apply(f_cm, aux, out)  # binds the plan to these aux objects
        for _ in range(3):
            aux["w0"] *= 1.5
            aux["c0"] += 0.25
            out.fill(0.0)
            op.apply(f_cm, aux, out)
            ref = apply_with(ts, aux, f_cm, "interpreted")
            assert np.array_equal(ref, out)


def test_emitted_sweep_source_executes_without_numba(case):
    """The numba-targeted source must also run under plain exec and agree
    with the interpreted plan on the uniform (unweighted) sweep."""
    ts, aux, f_cm = case
    plan = ExecutionPlan(ts, CDIM, VDIM, aux, (NCX, NCV))
    fused = FusedPlan(plan, tier="numpy")
    steps = list(fused._sparse)
    if not steps:
        pytest.skip("no sparse steps in this termset")
    src = emit_fused_sweep_source(
        "sweep", ts.nout, [bool(s.vel_names) for s in steps]
    )
    namespace: dict = {"np": np}
    exec(compile(src, "<sweep>", "exec"), namespace)
    assert callable(namespace["sweep"])


def test_unrolled_kernel_roundtrip(rng):
    """emit_kernel_source/compile_kernel (cell-major mode) reproduce the
    sparse TermSet application on random data."""
    ts = random_termset(rng, nout=4, nin=4, nterms=5)
    aux = random_aux(rng)
    f_cm = rng.standard_normal((NCX, ts.nin, NCV))
    kern = compile_kernel("k", ts, cdim=CDIM)
    out_k = np.zeros((NCX, ts.nout, NCV))
    kern(f_cm, aux, out_k)
    out_ref = np.zeros_like(out_k)
    ts.apply_cm(f_cm, aux, out_ref, CDIM)
    assert np.allclose(out_k, out_ref, rtol=1e-13, atol=1e-13)


@pytest.mark.skipif(cc_available() is None, reason="no C compiler")
def test_cc_tier_bitwise_matches_numpy_tier(case):
    ts, aux, f_cm = case
    a = apply_with(ts, aux, f_cm, "fused", tier="numpy")
    b = apply_with(ts, aux, f_cm, "fused", tier="cc")
    assert np.array_equal(a, b)


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
def test_configure_rejects_unknown_mode():
    with pytest.raises(ValueError):
        configure(mode="bogus")


def test_select_tier_degrades(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
    assert select_tier("numpy") == "numpy"
    assert select_tier("auto") in ("numba", "cc", "numpy")
    monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
    assert select_tier("auto") == "numpy"


def test_resolve_cache_root():
    assert resolve_cache_root(None) is None
    assert resolve_cache_root("off") is None
    assert resolve_cache_root("") is None
    assert resolve_cache_root("/some/dir") == Path("/some/dir")


# --------------------------------------------------------------------- #
# the disk cache
# --------------------------------------------------------------------- #
def test_cache_hydration_is_bit_identical_and_compile_free(case, tmp_path):
    ts, aux, f_cm = case
    cache = str(tmp_path / "plans")
    before = STATS.snapshot()
    cold = apply_with(ts, aux, f_cm, "fused", cache=cache)
    d1 = STATS.delta(STATS.snapshot(), before)
    assert d1["compiled"] >= 1 and d1["cache_stores"] >= 1

    before = STATS.snapshot()
    warm = apply_with(ts, aux, f_cm, "fused", cache=cache)
    d2 = STATS.delta(STATS.snapshot(), before)
    assert d2["compiled"] == 0
    assert d2["hydrated"] >= 1 and d2["cache_hits"] >= 1
    assert np.array_equal(cold, warm)


def test_cache_corrupt_payload_falls_back_to_compile(case, tmp_path):
    ts, aux, f_cm = case
    cache_dir = tmp_path / "plans"
    cold = apply_with(ts, aux, f_cm, "fused", cache=str(cache_dir))
    entries = list(cache_dir.glob("plan-*.npz"))
    assert entries
    for path in entries:
        path.write_bytes(path.read_bytes()[: max(4, path.stat().st_size // 3)])
    before = STATS.snapshot()
    got = apply_with(ts, aux, f_cm, "fused", cache=str(cache_dir))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["cache_misses"] >= 1 and delta["compiled"] >= 1
    assert np.array_equal(cold, got)
    # the recompile re-published good payloads: next load hydrates again
    before = STATS.snapshot()
    again = apply_with(ts, aux, f_cm, "fused", cache=str(cache_dir))
    assert STATS.delta(STATS.snapshot(), before)["compiled"] == 0
    assert np.array_equal(cold, again)


def test_cache_invalidated_by_aux_signature_change(case, tmp_path, rng):
    """The same termset with a re-classified symbol (velocity factor ->
    configuration field) must compile a distinct plan, not reuse the
    cached one."""
    ts, aux, f_cm = case
    cache = str(tmp_path / "plans")
    apply_with(ts, aux, f_cm, "fused", cache=cache)

    aux2 = dict(aux)
    aux2["w0"] = rng.standard_normal((NCX, 1))  # now configuration-varying
    names = sorted({n for sym in ts.entries_by_symbol() for n in sym})
    sig1 = aux_signature(names, aux, CDIM, VDIM)
    sig2 = aux_signature(names, aux2, CDIM, VDIM)
    assert sig1 != sig2
    assert plan_digest(ts, CDIM, VDIM, sig1, (NCX, NCV)) != plan_digest(
        ts, CDIM, VDIM, sig2, (NCX, NCV)
    )
    got = apply_with(ts, aux2, f_cm, "fused", cache=cache)
    ref = apply_with(ts, aux2, f_cm, "interpreted")
    assert np.array_equal(ref, got)


def test_cache_reuse_across_processes(tmp_path):
    """A child process warms the cache; this process hydrates the same
    digests without compiling and reproduces the child's output bitwise."""
    cache_dir = tmp_path / "plans"
    out_file = tmp_path / "child_out.npy"
    script = f"""
import numpy as np
from repro.engine.compile import STATS, compiler_config
from repro.kernels.grouped import GroupedOperator
from test_plan_compile import NCX, NCV, CDIM, VDIM, random_termset, random_aux

rng = np.random.default_rng(1234)
ts, aux = random_termset(rng), random_aux(rng)
f_cm = rng.standard_normal((NCX, ts.nin, NCV))
with compiler_config(mode="fused", cache={str(cache_dir)!r}):
    op = GroupedOperator(ts, CDIM, VDIM)
    out = np.zeros((NCX, ts.nout, NCV))
    op.apply(f_cm, aux, out)
assert STATS.compiled >= 1 and STATS.cache_stores >= 1
np.save({str(out_file)!r}, out)
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{root / 'src'}:{root / 'tests'}"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr

    rng = np.random.default_rng(1234)
    ts, aux = random_termset(rng), random_aux(rng)
    f_cm = rng.standard_normal((NCX, ts.nin, NCV))
    before = STATS.snapshot()
    got = apply_with(ts, aux, f_cm, "fused", cache=str(cache_dir))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["compiled"] == 0 and delta["hydrated"] >= 1
    assert np.array_equal(np.load(out_file), got)


def test_hydrated_plan_artifacts_roundtrip(case):
    """ExecutionPlan.to_artifacts/from_artifacts is the serialization the
    cache stores; the round trip must preserve every operator block."""
    ts, aux, f_cm = case
    plan = ExecutionPlan(ts, CDIM, VDIM, aux, (NCX, NCV))
    meta, arrays = plan.to_artifacts()
    clone = ExecutionPlan.from_artifacts(
        ts, CDIM, VDIM, aux, (NCX, NCV), meta, arrays
    )
    out_a = np.zeros((NCX, ts.nout, NCV))
    out_b = np.zeros_like(out_a)
    plan.apply(f_cm, aux, out_a)
    clone.apply(f_cm, aux, out_b)
    assert np.array_equal(out_a, out_b)


def test_compile_plan_counts_kernels(case, tmp_path):
    ts, aux, f_cm = case
    if select_tier("auto") == "numpy":
        pytest.skip("no compiled kernel tier available")
    before = STATS.snapshot()
    with compiler_config(mode="fused", cache=str(tmp_path / "plans")):
        compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["kernels_built"] + delta["kernels_loaded"] >= 0
    assert delta["fused"] == 1 and delta["compile_seconds"] > 0


def test_default_config_is_fused_auto():
    cfg = CompilerConfig()
    assert cfg.mode == "fused" and cfg.tier == "auto" and cfg.cache is None


@pytest.mark.parametrize("mode,tier", [("fused", "numpy"), ("interpreted", "auto")])
def test_whole_run_is_bitwise_equal_across_executors(mode, tier):
    """Serial runs under every executor end in the same bytes, energy history
    included.  In the numpy tier the moment plans weight the state by the
    same velocity factors as the solver's volume plan, and in-place stepping
    keeps the state in one array: a weighted copy kept from one apply must
    never be served to the next."""
    from repro.runtime import Driver, build

    spec = build("weibel_2x2v", nx=4, nv=6, poly_order=1, steps=3)

    def final_state():
        drv = Driver(spec)
        drv.run()
        state = {k: np.array(v) for k, v in drv.app.state().items()}
        for name, vals in drv.history.particle_energy.items():
            state["particle_energy/" + name] = np.array(vals)
        return state

    want = final_state()
    with compiler_config(mode=mode, tier=tier):
        got = final_state()
    assert set(got) == set(want)
    for key in want:
        assert np.array_equal(got[key], want[key]), key
