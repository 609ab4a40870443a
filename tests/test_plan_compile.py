"""The plan executor's sweep kernels and the content-addressed plan cache.

The invariants under test: a compiled plan agrees with the exact sparse
reference (``TermSet.apply_cm``) to roundoff; its two sweep kernels (the
compiled C sweep and scipy's ``csr_matvecs``) are **bitwise identical** to
each other and to the sha256 goldens the deleted per-term interpreted
executor left behind; and a plan hydrated from the disk cache is bitwise
identical to a fresh compile — so the cache and the codegen can never
change an answer, only its cost.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.cas import codegen
from repro.cas.codegen import cc_available, compile_kernel, select_tier
from repro.engine.compile import (
    STATS,
    CompilerConfig,
    compile_plan,
    compiler_config,
)
from repro.engine.plan import ExecutionPlan, aux_signature, plan_digest
from repro.engine.plancache import PlanCache, resolve_cache_root
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet

CDIM, VDIM = 1, 1
NCX, NCV = 3, 4


#: velocity-cell counts on either side of every tile boundary of the C sweep
#: (scalar tail, half vectors, one vector, four vectors) at any vector width
NVELS = (1, 2, 3, 7, 8, 9, 31, 32, 33, 67)


def random_termset(rng, nout=5, nin=6, nterms=7):
    """A random mixed termset: uniform, velocity-weighted, scalar-scaled,
    and configuration-varying symbol groups (the shapes real generated
    kernels produce, with random sparsity) — among the latter a
    configuration x velocity symbol, a product of two configuration factors
    and a repeated ``(l, m)`` slot.  The last output row has no entry."""

    def triples(n):
        return [
            (int(rng.integers(nout - 1)), int(rng.integers(nin)),
             float(rng.standard_normal()))
            for _ in range(n)
        ]

    cfg = triples(nterms)
    cfg += [(l, m, float(rng.standard_normal())) for l, m, _ in cfg[:2]]
    entries = {
        (): triples(nterms),
        ("w0",): triples(nterms),
        ("w1", "s0"): triples(nterms),
        ("c0",): cfg,
        ("c0", "w0"): triples(nterms),
        ("c0", "c1"): triples(nterms),
    }
    return TermSet(nout, nin, entries)


def random_aux(rng, ncv=NCV):
    return {
        "w0": rng.standard_normal((1, ncv)),
        "w1": rng.standard_normal((1, ncv)),
        "s0": float(rng.standard_normal()),
        "c0": rng.standard_normal((NCX, 1)),
        "c1": rng.standard_normal((NCX, 1)),
    }


def apply_with(ts, aux, f_cm, tier="auto", cache="off", base=None):
    """One fresh GroupedOperator application under a scoped config:
    assigned (``accumulate=False``, into a NaN-poisoned array — no prior
    content may leak into the result), or accumulated onto a copy of
    ``base``."""
    with compiler_config(tier=tier, cache=cache):
        op = GroupedOperator(ts, CDIM, VDIM)
        if base is None:
            out = np.full((NCX, ts.nout, f_cm.shape[-1]), np.nan)
        else:
            out = base.copy()
        op.apply(f_cm, aux, out, accumulate=base is not None)
    return out


def reference(ts, aux, f_cm, base=None):
    """The exact sparse path every plan is a reorganisation of."""
    if base is None:
        out = np.zeros((NCX, ts.nout, f_cm.shape[-1]))
    else:
        out = base.copy()
    return ts.apply_cm(f_cm, aux, out, CDIM)


needs_cc = pytest.mark.skipif(cc_available() is None, reason="no C compiler")
SWEEP_TIERS = ["numpy", pytest.param("cc", marks=needs_cc)]
TIERS = SWEEP_TIERS + ["auto"]


@pytest.fixture(scope="module")
def case(rng):
    ts = random_termset(rng)
    aux = random_aux(rng)
    f_cm = rng.standard_normal((NCX, ts.nin, NCV))
    return ts, aux, f_cm


# --------------------------------------------------------------------- #
# executor equivalence
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("tier", TIERS)
def test_plan_matches_sparse_reference(case, rng, tier):
    ts, _, _ = case
    for ncv in NVELS:
        aux = random_aux(rng, ncv)
        f_cm = rng.standard_normal((NCX, ts.nin, ncv))
        for base in (None, rng.standard_normal((NCX, ts.nout, ncv))):
            got = apply_with(ts, aux, f_cm, tier=tier, base=base)
            assert np.allclose(
                got, reference(ts, aux, f_cm, base), rtol=1e-13, atol=1e-13
            ), ncv
            assert np.array_equal(
                got, apply_with(ts, aux, f_cm, tier="numpy", base=base)
            ), ncv


def test_tiers_agree_on_many_random_termsets(rng):
    """Property check across random sparsity patterns, including degenerate
    ones (empty groups, repeated entries), and velocity-cell counts around
    every tile size of the C sweep: the plan matches the sparse reference to
    roundoff and the sweep kernels match each other bitwise, accumulating
    and assigning."""
    for trial in range(10):
        ts = random_termset(rng, nout=int(rng.integers(2, 7)),
                            nin=int(rng.integers(2, 7)),
                            nterms=int(rng.integers(1, 9)))
        ncv = NVELS[trial]
        aux = random_aux(rng, ncv)
        f_cm = rng.standard_normal((NCX, ts.nin, ncv))
        for base in (None, rng.standard_normal((NCX, ts.nout, ncv))):
            got = apply_with(ts, aux, f_cm, tier="numpy", base=base)
            assert np.allclose(
                got, reference(ts, aux, f_cm, base), rtol=1e-13, atol=1e-13
            ), f"trial {trial} diverged"
            assert np.array_equal(
                got, apply_with(ts, aux, f_cm, tier="cc", base=base)
            ), trial


def test_accumulate_and_assign(case):
    ts, aux, f_cm = case
    with compiler_config(cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        base = np.ones((NCX, ts.nout, NCV))
        acc = base.copy()
        op.apply(f_cm, aux, acc, accumulate=True)
        fresh = np.zeros_like(base)
        op.apply(f_cm, aux, fresh, accumulate=False)
    # accumulate interleaves term adds with the base, so (acc - base) and
    # fresh differ in summation order — tight tolerance, not bitwise
    assert np.allclose(acc - base, fresh, rtol=1e-13, atol=1e-13)
    # assigning never reads ``out``: into NaNs it equals, bit for bit,
    # accumulating onto zeros — the row without entries included
    for tier in ["numpy"] + (["cc"] if cc_available() else []):
        zacc = apply_with(ts, aux, f_cm, tier=tier, base=np.zeros_like(base))
        assert np.array_equal(zacc, apply_with(ts, aux, f_cm, tier=tier)), tier
        assert np.array_equal(zacc, fresh), tier


@pytest.mark.parametrize("tier", TIERS)
def test_plan_tracks_inplace_aux_mutation(case, rng, tier):
    """Velocity factors and cfg coefficients mutated *in place* (same array
    objects — the identity fast path stays hot) must be re-read per apply:
    the bound operator equals one freshly built on the mutated values."""
    ts, _, f_cm = case
    aux = random_aux(rng)
    with compiler_config(tier=tier, cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        out = np.zeros((NCX, ts.nout, NCV))
        op.apply(f_cm, aux, out)  # binds the plan to these aux objects
        for _ in range(3):
            aux["w0"] *= 1.5
            aux["w1"] -= 0.5  # one factor of the multi-name (w1, s0) group
            aux["c0"] += 0.25
            out.fill(0.0)
            op.apply(f_cm, aux, out)
            assert np.array_equal(apply_with(ts, aux, f_cm, tier=tier), out)


# --------------------------------------------------------------------- #
# fossil of the deleted per-term interpreted executor
# --------------------------------------------------------------------- #
def _dyadic(rng, shape=()):
    """Exactly representable values whose products still round."""
    return rng.integers(-(2**30), 2**30, size=shape) / 2.0**20


def fossil_case(name):
    """Seeded GEMM-free termsets (no configuration-varying symbol, so no
    BLAS: under ``-ffp-contract=off`` the bits are platform-independent)."""
    rng = np.random.default_rng(20260928)
    nout, nin = 5, 6

    def triples(n, repeat=False):
        out = [
            (int(rng.integers(nout)), int(rng.integers(nin)), float(_dyadic(rng)))
            for _ in range(n)
        ]
        if repeat:
            out += [(l, m, float(_dyadic(rng))) for l, m, _ in out[:3]]
        return out

    symbols = {
        "uniform": [()],
        "velocity_weighted": [("w0",), ("w0", "w1")],
        "scalar_scaled": [(), ("s0",), ("s0", "s1"), ("w1", "s0")],
        "repeated_entries": [(), ("s0",), ("w0",)],
    }[name]
    ts = TermSet(
        nout, nin,
        {sym: triples(7, repeat=name == "repeated_entries") for sym in symbols},
    )
    aux = {
        "w0": _dyadic(rng, (1, NCV)),
        "w1": _dyadic(rng, (1, NCV)),
        "s0": float(_dyadic(rng)),
        "s1": float(_dyadic(rng)),
    }
    f_cm = _dyadic(rng, (NCX, nin, NCV))
    base = _dyadic(rng, (NCX, nout, NCV))
    return ts, aux, f_cm, base


#: sha256 of the plan output, computed at the parent commit with
#: ``plan_mode="interpreted"`` (one ``csr_matvecs`` sweep per term) just
#: before that executor was deleted; (case, accumulate) -> digest
FOSSIL_SHA256 = {
    ("uniform", True): "c277e9fee7e568b7bc216aa62a3e496315b6f6ed3ea3e0542c3d96fb8d1f3aba",
    ("uniform", False): "5834034b88878c4fc7ac50310cd00ff5d252a56589e3efcc6371400db7b79e60",
    ("velocity_weighted", True): "af4bc9a2beb0f4be35843fdcaf1d11eb29b34010a143829111e6ac30d2b38ba5",
    ("velocity_weighted", False): "c1a207e404c9e62d4cce46eea2cf29c459871d42c7de6135a5683cfd3b8991c1",
    ("scalar_scaled", True): "9df595d24e31417540013cd44614c1500c015350932098f880327877266e0c6b",
    ("scalar_scaled", False): "a9d3fc31614a9bf97f92f18be2fe1249c1f6fdbf88ef1ee1ef10090eba79a63c",
    ("repeated_entries", True): "63a4998a5bb6dec8d3e0e9c66ee0fe6490ccd7ecae4544483aec0b98f6558e94",
    ("repeated_entries", False): "0db5fceb585588306f9e879d63a5952281cbb3531232d7c8f0cdb15c56e31283",
}


@pytest.mark.parametrize("tier", SWEEP_TIERS)
@pytest.mark.parametrize("name,accumulate", sorted(FOSSIL_SHA256))
def test_fossil_of_the_interpreted_executor(name, accumulate, tier):
    ts, aux, f_cm, base = fossil_case(name)
    with compiler_config(tier=tier, cache="off"):
        plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
        assert plan.tier == tier and plan.stats["cfg_groups"] == 0
        out = plan.apply(f_cm, aux, base.copy(), accumulate=accumulate)
    digest = hashlib.sha256(out.astype("<f8").tobytes()).hexdigest()
    assert digest == FOSSIL_SHA256[name, accumulate]


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


@needs_cc
def test_cc_tier_bitwise_matches_numpy_tier(case, monkeypatch):
    """Holds on the CI numpy-tier leg too: an explicit tier beats the
    environment, so this never compares numpy with numpy."""
    monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
    ts, aux, f_cm = case
    with compiler_config(tier="cc", cache="off"):
        assert compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV)).tier == "cc"
    with compiler_config(tier="auto", cache="off"):
        assert compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV)).tier == "numpy"
    a = apply_with(ts, aux, f_cm, tier="numpy")
    b = apply_with(ts, aux, f_cm, tier="cc")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("tier", SWEEP_TIERS)
def test_per_cell_rows_of_equal_shape_do_not_alias(rng, tier):
    """Two configuration-varying groups with the same term count, the same
    pattern size and the same ``ncfg``: every group's per-cell rows are live
    at the one kernel call, so each must own its own."""
    nout, nin = 4, 5
    slots = [(l, m) for l in range(nout) for m in range(nin)]

    def triples():
        picks = rng.choice(len(slots), size=6, replace=False)
        return [(*slots[i], float(rng.standard_normal())) for i in picks]

    ts = TermSet(nout, nin, {("c0",): triples(), ("c1", "w0"): triples()})
    aux = random_aux(rng)
    f_cm = rng.standard_normal((NCX, nin, NCV))
    with compiler_config(tier=tier, cache="off"):
        plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
        out = plan.apply(f_cm, aux, np.zeros((NCX, nout, NCV)))
    assert plan.tier == tier and plan.stats["cfg_groups"] == 2
    a, b = (g.data for g in plan._groups)
    assert a.shape == b.shape and not np.shares_memory(a, b)
    assert np.allclose(out, reference(ts, aux, f_cm), rtol=1e-13, atol=1e-13)


@needs_cc
def test_sweep_bits_do_not_depend_on_the_isa_flag(case, tmp_path):
    """The kernel source built with and without ``-march=native`` (any
    vector width the host offers, down to the baseline ISA) produces the
    bits the plan's own kernel does: with contraction off and no
    reassociation the per-element float sequence is the same."""
    ts, _, _ = case
    rng = np.random.default_rng(7)
    ncv = 67
    aux = random_aux(rng, ncv)
    f_cm = rng.standard_normal((NCX, ts.nin, ncv))
    base = rng.standard_normal((NCX, ts.nout, ncv))
    src = tmp_path / "sweep.c"
    src.write_text(codegen.FUSED_SWEEP_C)
    with compiler_config(tier="cc", cache="off"):
        plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, ncv))
    assert plan.tier == "cc"
    built = 0
    for name, isa in (("native", [codegen.CC_ISA_FLAG]), ("baseline", [])):
        so = tmp_path / f"{name}.so"
        proc = subprocess.run(
            [cc_available()[0], *codegen.CC_FLAGS, *isa, "-o", str(so), str(src)],
            capture_output=True, text=True,
        )
        if proc.returncode != 0 and isa:
            continue  # a compiler without the flag: the product drops it too
        assert proc.returncode == 0, proc.stderr
        built += 1
        fn = ctypes.CDLL(str(so)).fused_sweep
        fn.restype = None
        fn.argtypes = codegen.FUSED_SWEEP_ARGTYPES
        for accumulate in (True, False):
            # the plan's apply refreshes the per-cell rows and the weight
            # buffers the group table points at; the rebuilt kernel then
            # sweeps the very same table
            want = plan.apply(f_cm, aux, base.copy(), accumulate=accumulate)
            got = base.copy()
            fn(f_cm.ctypes.data, got.ctypes.data, accumulate, *plan._cc_tail)
            assert np.array_equal(got, want), (name, accumulate)
    assert built >= 1


def test_failed_kernel_build_is_counted_and_reported(case, tmp_path, monkeypatch):
    """A compiler that starts but cannot build the kernel: the plan runs the
    scipy sweep, says so (``tier``, ``kernels_failed``, one warning with the
    compiler's complaint) and computes the same bytes."""
    ts, aux, f_cm = case
    stub = tmp_path / "stubcc"
    stub.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = "--version" ]; then echo "stubcc 0.0"; exit 0; fi\n'
        'echo "stubcc: cannot compile anything" >&2\n'
        "exit 1\n"
    )
    stub.chmod(0o755)
    monkeypatch.setenv("CC", str(stub))
    monkeypatch.setattr(codegen, "_CC", None)  # re-probe: finds the stub
    before = STATS.snapshot()
    with compiler_config(tier="cc", cache="off"):
        assert select_tier("cc") == "cc"
        with pytest.warns(RuntimeWarning, match="stubcc: cannot compile anything"):
            plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
        out = plan.apply(f_cm, aux, np.zeros((NCX, ts.nout, NCV)))
    delta = STATS.delta(STATS.snapshot(), before)
    assert plan.tier == "numpy" and plan.kernel_status == "failed"
    assert delta["kernels_failed"] == 1
    assert delta["kernels_built"] == delta["kernels_loaded"] == 0
    assert np.array_equal(
        out, apply_with(ts, aux, f_cm, tier="numpy", base=np.zeros_like(out))
    )


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #
def test_select_tier_precedence(monkeypatch):
    """An explicit tier wins; ``$REPRO_KERNEL_TIER`` only replaces ``auto``."""
    best = "cc" if cc_available() else "numpy"
    monkeypatch.delenv("REPRO_KERNEL_TIER", raising=False)
    assert select_tier("numpy") == "numpy"
    assert select_tier("cc") == select_tier("auto") == select_tier() == best
    monkeypatch.setenv("REPRO_KERNEL_TIER", "numpy")
    assert select_tier("auto") == select_tier() == "numpy"
    assert select_tier("cc") == best
    monkeypatch.setenv("REPRO_KERNEL_TIER", "cc")
    assert select_tier("numpy") == "numpy"
    assert select_tier() == best
    with pytest.raises(ValueError, match="unknown kernel tier"):
        select_tier("numba")


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
    cold = apply_with(ts, aux, f_cm, cache=cache)
    d1 = STATS.delta(STATS.snapshot(), before)
    assert d1["compiled"] >= 1 and d1["cache_stores"] >= 1

    before = STATS.snapshot()
    warm = apply_with(ts, aux, f_cm, cache=cache)
    d2 = STATS.delta(STATS.snapshot(), before)
    assert d2["compiled"] == 0
    assert d2["hydrated"] >= 1 and d2["cache_hits"] >= 1
    assert np.array_equal(cold, warm)


def _truncate(path):
    path.write_bytes(path.read_bytes()[: max(4, path.stat().st_size // 3)])


def _flip_payload_byte(path):
    """Flip the last data byte of the largest member: array data, which only
    the zip container's per-member CRC can vouch for."""
    with zipfile.ZipFile(path) as z:
        info = max(z.infolist(), key=lambda i: i.file_size)
    raw = bytearray(path.read_bytes())
    name_len, extra_len = struct.unpack_from("<HH", raw, info.header_offset + 26)
    raw[info.header_offset + 30 + name_len + extra_len + info.file_size - 1] ^= 0x01
    path.write_bytes(bytes(raw))


def test_cache_corrupt_payload_falls_back_to_compile(case, tmp_path):
    ts, aux, f_cm = case
    cache_dir = tmp_path / "plans"
    cold = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    for damage in (_truncate, _flip_payload_byte):
        entries = list(cache_dir.glob("plan-*.npz"))
        assert entries
        for path in entries:
            damage(path)
        before = STATS.snapshot()
        got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
        delta = STATS.delta(STATS.snapshot(), before)
        assert delta["cache_misses"] >= 1 and delta["compiled"] >= 1
        assert delta["hydrated"] == 0  # rejected, never served
        assert np.array_equal(cold, got)
        # the recompile re-published good payloads: next load hydrates again
        before = STATS.snapshot()
        again = apply_with(ts, aux, f_cm, cache=str(cache_dir))
        assert STATS.delta(STATS.snapshot(), before)["compiled"] == 0
        assert np.array_equal(cold, again)


def test_only_a_bad_payload_falls_back_to_compile(case, tmp_path, monkeypatch):
    """A payload that loads (good CRCs) but holds a pattern the C sweep
    would overrun on is a cache miss; an error that is not about the payload
    — a bug in the hydration code — is not swallowed into a recompile."""
    ts, aux, f_cm = case
    cache_dir = tmp_path / "plans"
    cold = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    for path in cache_dir.glob("plan-*.npz"):
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files}
        arrays["g0i"][0] = ts.nin  # one column past the input rows
        np.savez(path, **arrays)
    before = STATS.snapshot()
    got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["hydrated"] == 0 and delta["compiled"] >= 1
    assert np.array_equal(cold, got)

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a payload")

    monkeypatch.setattr(ExecutionPlan, "from_artifacts", broken)
    with pytest.raises(TypeError, match="a bug, not a payload"):
        apply_with(ts, aux, f_cm, cache=str(cache_dir))


def test_cache_invalidated_by_aux_signature_change(case, tmp_path, rng):
    """The same termset with a re-classified symbol (velocity factor ->
    configuration field) must compile a distinct plan, not reuse the
    cached one."""
    ts, aux, f_cm = case
    cache = str(tmp_path / "plans")
    apply_with(ts, aux, f_cm, cache=cache)

    aux2 = dict(aux)
    aux2["w0"] = rng.standard_normal((NCX, 1))  # now configuration-varying
    names = sorted({n for sym in ts.entries_by_symbol() for n in sym})
    sig1 = aux_signature(names, aux, CDIM, VDIM)
    sig2 = aux_signature(names, aux2, CDIM, VDIM)
    assert sig1 != sig2
    assert plan_digest(ts, CDIM, VDIM, sig1, (NCX, NCV)) != plan_digest(
        ts, CDIM, VDIM, sig2, (NCX, NCV)
    )
    got = apply_with(ts, aux2, f_cm, cache=cache)
    assert np.array_equal(apply_with(ts, aux2, f_cm), got)


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
with compiler_config(cache={str(cache_dir)!r}):
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
    got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["compiled"] == 0 and delta["hydrated"] >= 1
    assert np.array_equal(np.load(out_file), got)


def test_hydrated_plan_artifacts_roundtrip(case):
    """ExecutionPlan.to_artifacts/from_artifacts is the serialization the
    cache stores; the round trip must preserve every operator block."""
    ts, aux, f_cm = case
    plan = ExecutionPlan(ts, CDIM, VDIM, aux, (NCX, NCV))
    meta, arrays = plan.to_artifacts()
    # matrix-free on disk too: values live on the exact non-zeros, never on
    # a dense (nout x nin) block
    assert plan.stats["cfg_items"] > 0
    assert all(a.ndim == 1 or a.shape[1] < ts.nout * ts.nin for a in arrays.values())
    clone = ExecutionPlan.from_artifacts(
        ts, CDIM, VDIM, aux, (NCX, NCV), meta, arrays
    )
    out_a = np.zeros((NCX, ts.nout, NCV))
    out_b = np.zeros_like(out_a)
    plan.apply(f_cm, aux, out_a)
    clone.apply(f_cm, aux, out_b)
    assert np.array_equal(out_a, out_b)
    # the C sweep trusts the stored pattern, so a payload that is not one
    # is refused (compile_plan then treats it as a miss and recompiles)
    bad = dict(arrays, g0i=arrays["g0i"] + ts.nin)
    with pytest.raises(ValueError, match="consistent sweep group"):
        ExecutionPlan.from_artifacts(ts, CDIM, VDIM, aux, (NCX, NCV), meta, bad)


def test_compile_plan_counts_kernels(case, tmp_path):
    ts, aux, f_cm = case
    if select_tier("auto") == "numpy":
        pytest.skip("no compiled kernel tier available")
    before = STATS.snapshot()
    with compiler_config(cache=str(tmp_path / "plans")):
        compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
    delta = STATS.delta(STATS.snapshot(), before)
    assert delta["kernels_built"] + delta["kernels_loaded"] == 1
    assert delta["compiled"] == 1 and delta["compile_seconds"] > 0


def test_default_config_is_auto_tier_no_cache():
    cfg = CompilerConfig()
    assert cfg.tier == "auto" and cfg.cache is None


@needs_cc
def test_whole_run_is_bitwise_equal_across_tiers():
    """Serial runs under both sweep kernels end in the same bytes, energy
    history included: the 2X2V Maxwell problem, the Poisson-coupled 1X1V one
    (``E`` coefficients as per-cell rows) and the LBO one (per-cell rows in
    most of its plans).  In the numpy tier the moment plans weight the state
    by the same velocity factors as the solver's volume plan, and in-place
    stepping keeps the state in one array: a weighted copy kept from one
    apply must never be served to the next."""
    from repro.runtime import Driver, build

    specs = [
        build("weibel_2x2v", nx=4, nv=6, poly_order=1, steps=3),
        build("two_stream", nx=4, nv=9, steps=3),
        build("collisional_relaxation", nx=2, nv=9, steps=3),
    ]

    def final_state(spec, tier):
        with compiler_config(tier=tier):
            drv = Driver(spec)
            drv.run()
        state = {k: np.array(v) for k, v in drv.app.state().items()}
        for name, vals in drv.history.particle_energy.items():
            state["particle_energy/" + name] = np.array(vals)
        return state

    for spec in specs:
        want = final_state(spec, "cc")
        got = final_state(spec, "numpy")
        assert set(got) == set(want)
        for key in want:
            assert np.array_equal(got[key], want[key]), (spec.name, key)
