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
import json
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
    CompilerConfig,
    compile_plan,
    compiler_config,
    plan_counts,
)
from repro.engine.plan import ExecutionPlan, aux_signature, plan_digest
from repro.engine import plancache
from repro.engine.plancache import PlanCache, resolve_cache_root
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet
from repro.obs import OBS

CDIM, VDIM = 1, 1
NCX, NCV = 3, 4


#: velocity-cell counts on either side of every tile boundary of the C sweep
#: (scalar tail, half vectors, one vector, four vectors) at any vector width
NVELS = (1, 2, 3, 7, 8, 9, 31, 32, 33, 67)


def plans_since(before):
    """The plan counts of the metrics registry since snapshot ``before``."""
    after = OBS.metrics.snapshot()
    return plan_counts({k: after[k] - before[k] for k in after})


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


@pytest.fixture(scope="session")
def apply_with(run_op):
    def apply_with(ts, aux, f_cm, tier="auto", cache="off", base=None):
        """One fresh GroupedOperator run under a scoped config: assigned
        (``accumulate=False``, into a NaN-poisoned array — no prior content
        may leak into the result), or accumulated onto a copy of ``base``."""
        with compiler_config(tier=tier, cache=cache):
            op = GroupedOperator(ts, CDIM, VDIM)
            if base is None:
                out = np.full((NCX, ts.nout, f_cm.shape[-1]), np.nan)
            else:
                out = base.copy()
            return run_op(op, f_cm, aux, out, accumulate=base is not None)

    return apply_with


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
def test_plan_matches_sparse_reference(case, rng, tier, apply_with):
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


def test_tiers_agree_on_many_random_termsets(rng, apply_with):
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


def test_accumulate_and_assign(case, run_op, apply_with):
    ts, aux, f_cm = case
    with compiler_config(cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        base = np.ones((NCX, ts.nout, NCV))
        acc = base.copy()
        run_op(op, f_cm, aux, acc, accumulate=True)
        fresh = np.zeros_like(base)
        run_op(op, f_cm, aux, fresh, accumulate=False)
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
def test_plan_tracks_inplace_aux_mutation(case, rng, tier, run_op, apply_with):
    """Velocity factors and cfg coefficients mutated *in place* (same array
    objects — the identity fast path stays hot) must be re-read per apply:
    the bound operator equals one freshly built on the mutated values."""
    ts, _, f_cm = case
    aux = random_aux(rng)
    with compiler_config(tier=tier, cache="off"):
        op = GroupedOperator(ts, CDIM, VDIM)
        out = np.zeros((NCX, ts.nout, NCV))
        run_op(op, f_cm, aux, out)  # binds the plan to these aux objects
        for _ in range(3):
            aux["w0"] *= 1.5
            aux["w1"] -= 0.5  # one factor of the multi-name (w1, s0) group
            aux["c0"] += 0.25
            out.fill(0.0)
            run_op(op, f_cm, aux, out)
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
def test_fossil_of_the_interpreted_executor(name, accumulate, tier, run_op):
    ts, aux, f_cm, base = fossil_case(name)
    with compiler_config(tier=tier, cache="off"):
        plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
        assert plan.tier == tier and len(plan._per_cell) == 0
        out = run_op(plan, f_cm, aux, base.copy(), accumulate=accumulate)
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
def test_cc_tier_bitwise_matches_numpy_tier(case, monkeypatch, apply_with):
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
def test_per_cell_rows_of_equal_shape_do_not_alias(rng, tier, run_op):
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
        out = run_op(plan, f_cm, aux, np.zeros((NCX, nout, NCV)))
    assert plan.tier == tier and len(plan._per_cell) == 2
    a, b = (g.data for g in plan._groups)
    assert a.shape == b.shape and not np.shares_memory(a, b)
    assert np.allclose(out, reference(ts, aux, f_cm), rtol=1e-13, atol=1e-13)


@needs_cc
def test_sweep_bits_do_not_depend_on_the_isa_flag(case, tmp_path, run_op):
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
            want = run_op(plan, f_cm, aux, base.copy(), accumulate=accumulate)
            got = base.copy()
            fn(f_cm.ctypes.data, got.ctypes.data, accumulate, *plan._cc_tail)
            assert np.array_equal(got, want), (name, accumulate)
    assert built >= 1


def test_failed_kernel_build_is_counted_and_reported(
    case, tmp_path, monkeypatch, run_op, apply_with
):
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
    before = OBS.metrics.snapshot()
    with compiler_config(tier="cc", cache="off"):
        assert select_tier("cc") == "cc"
        with pytest.warns(RuntimeWarning, match="stubcc: cannot compile anything"):
            plan = compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
        out = run_op(plan, f_cm, aux, np.zeros((NCX, ts.nout, NCV)))
    delta = plans_since(before)
    assert plan.tier == "numpy" and plan.kernel_status == "failed"
    assert delta["kernels_failed"] == 1
    assert delta["kernels_built"] == delta["kernels_loaded"] == 0
    assert np.array_equal(
        out, apply_with(ts, aux, f_cm, tier="numpy", base=np.zeros_like(out))
    )


@needs_cc
def test_a_process_that_finds_its_kernel_starts_no_child(tmp_path, monkeypatch):
    """Identifying the compiler and loading a kernel already on disk run no
    process: a child would be charged the caller's whole resident size."""
    assert codegen.compile_fused_sweep(str(tmp_path)) is not None
    monkeypatch.setattr(codegen, "_CC", None)
    monkeypatch.setattr(codegen, "_LOADED_KERNELS", {})

    def no_child(*args, **kwargs):  # pragma: no cover - the assertion
        raise AssertionError(f"started a child process: {args[0]!r}")

    monkeypatch.setattr(codegen.subprocess, "run", no_child)
    kern = codegen.compile_fused_sweep(str(tmp_path))
    assert kern is not None and not kern.fresh


def test_the_kernel_digest_follows_the_compiler_file(tmp_path, monkeypatch):
    """A compiler file with another size, modification time or inode names
    another kernel artifact, so a replaced toolchain rebuilds."""
    stub = tmp_path / "stubcc"
    stub.write_text("#!/bin/sh\nexit 1\n")
    stub.chmod(0o755)
    monkeypatch.setenv("CC", str(stub))

    def digest():
        monkeypatch.setattr(codegen, "_CC", None)
        cc = cc_available()
        assert cc[0] == str(stub)
        return codegen._sweep_digest(cc)

    first = digest()
    assert digest() == first
    mtime = stub.stat().st_mtime_ns
    os.utime(stub, ns=(mtime, mtime + 10**9))
    assert digest() != first


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
def test_cache_hydration_is_bit_identical_and_compile_free(case, fresh_cache, apply_with):
    ts, aux, f_cm = case
    cache = str(fresh_cache())
    before = OBS.metrics.snapshot()
    cold = apply_with(ts, aux, f_cm, cache=cache)
    d1 = plans_since(before)
    assert d1["compiled"] >= 1 and d1["cache_stores"] >= 1

    before = OBS.metrics.snapshot()
    warm = apply_with(ts, aux, f_cm, cache=cache)
    d2 = plans_since(before)
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


def test_cache_corrupt_payload_falls_back_to_compile(case, fresh_cache, apply_with):
    ts, aux, f_cm = case
    cache_dir = fresh_cache()
    cold = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    for damage in (_truncate, _flip_payload_byte):
        entries = list(cache_dir.glob("plan-*.npz"))
        assert entries
        for path in entries:
            damage(path)
        before = OBS.metrics.snapshot()
        got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
        delta = plans_since(before)
        assert delta["cache_misses"] >= 1 and delta["compiled"] >= 1
        assert delta["hydrated"] == 0  # rejected, never served
        assert np.array_equal(cold, got)
        # the recompile re-published good payloads: next load hydrates again
        before = OBS.metrics.snapshot()
        again = apply_with(ts, aux, f_cm, cache=str(cache_dir))
        assert plans_since(before)["compiled"] == 0
        assert np.array_equal(cold, again)


# --------------------------------------------------------------------- #
# the in-process payload memo
# --------------------------------------------------------------------- #
def _count_archive_opens(monkeypatch):
    """Record every ``np.load`` the plan cache makes from here on."""
    opened = []
    real_load = np.load

    def counting_load(*args, **kwargs):
        opened.append(args[0])
        return real_load(*args, **kwargs)

    monkeypatch.setattr(plancache.np, "load", counting_load)
    return opened


def test_a_second_load_of_unchanged_bytes_opens_no_archive(
    case, fresh_cache, monkeypatch, apply_with
):
    ts, aux, f_cm = case
    cache = str(fresh_cache())
    cold = apply_with(ts, aux, f_cm, cache=cache)  # compiles and publishes
    apply_with(ts, aux, f_cm, cache=cache)  # parses the entries
    opened = _count_archive_opens(monkeypatch)
    before = OBS.metrics.snapshot()
    warm = apply_with(ts, aux, f_cm, cache=cache)
    delta = plans_since(before)
    assert opened == []
    assert delta["compiled"] == 0 and delta["hydrated"] >= 1 and delta["cache_hits"] >= 1
    assert np.array_equal(cold, warm)


@pytest.mark.parametrize("damage", [_truncate, _flip_payload_byte])
def test_an_entry_damaged_after_it_was_memoized_is_recompiled(
    case, fresh_cache, damage, apply_with
):
    ts, aux, f_cm = case
    cache_dir = fresh_cache()
    cold = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    apply_with(ts, aux, f_cm, cache=str(cache_dir))  # memoizes the payloads
    for path in cache_dir.glob("plan-*.npz"):
        damage(path)
    before = OBS.metrics.snapshot()
    got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    delta = plans_since(before)
    assert delta["cache_misses"] >= 1 and delta["compiled"] >= 1
    assert delta["hydrated"] == 0  # other bytes, other key: never served
    assert np.array_equal(cold, got)


def test_memoized_arrays_are_read_only(case, fresh_cache, apply_with):
    ts, aux, f_cm = case
    cache = PlanCache(fresh_cache())
    apply_with(ts, aux, f_cm, cache=str(cache.root))
    for path in cache.root.glob("plan-*.npz"):
        meta, arrays = cache.load(path.stem[len("plan-"):])
        assert cache.load(path.stem[len("plan-"):])[1] is arrays  # one payload, shared
        assert arrays
        for a in arrays.values():
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0


def test_the_memo_stays_within_its_byte_cap(tmp_path, rng, monkeypatch):
    cap = 3 * 512  # three 64-double payloads
    monkeypatch.setattr(plancache, "MEMO_BYTES", cap)
    monkeypatch.setattr(plancache, "_MEMO", plancache._PayloadMemo())
    cache = PlanCache(tmp_path)
    for i in range(8):
        assert cache.store(f"d{i}", {"i": i}, {"a": rng.standard_normal(64)})
        assert cache.load(f"d{i}")[0]["i"] == i
        assert 0 < plancache._MEMO.nbytes <= cap
    assert cache.store("big", {}, {"a": rng.standard_normal(4 * 64)})
    assert cache.load("big") is not None  # served, not held
    assert plancache._MEMO.nbytes == cap
    opened = _count_archive_opens(monkeypatch)
    cache.load("d7")
    assert opened == []  # recently used: held
    cache.load("d0")
    assert len(opened) == 1  # least recently used: evicted, parsed again


def test_only_a_bad_payload_falls_back_to_compile(
    case, fresh_cache, monkeypatch, apply_with
):
    """A payload that loads (good CRCs) but holds a pattern the C sweep
    would overrun on is a cache miss; an error that is not about the payload
    — a bug in the hydration code — is not swallowed into a recompile."""
    ts, aux, f_cm = case
    cache_dir = fresh_cache()
    cold = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    for path in cache_dir.glob("plan-*.npz"):
        with np.load(path) as z:
            arrays = {key: z[key] for key in z.files}
        arrays["g0i"][0] = ts.nin  # one column past the input rows
        np.savez(path, **arrays)
    before = OBS.metrics.snapshot()
    got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    delta = plans_since(before)
    assert delta["hydrated"] == 0 and delta["compiled"] >= 1
    assert np.array_equal(cold, got)

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a payload")

    monkeypatch.setattr(ExecutionPlan, "from_artifacts", broken)
    with pytest.raises(TypeError, match="a bug, not a payload"):
        apply_with(ts, aux, f_cm, cache=str(cache_dir))


def test_cache_invalidated_by_aux_signature_change(case, fresh_cache, rng, apply_with):
    """The same termset with a re-classified symbol (velocity factor ->
    configuration field) must compile a distinct plan, not reuse the
    cached one."""
    ts, aux, f_cm = case
    cache = str(fresh_cache())
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


def test_cache_reuse_across_processes(tmp_path, fresh_cache, apply_with):
    """A child process warms the cache; this process hydrates the same
    digests without compiling and reproduces the child's output bitwise."""
    cache_dir = fresh_cache()
    out_file = tmp_path / "child_out.npy"
    script = f"""
import numpy as np
from repro.engine.compile import compiler_config, plan_counts
from repro.kernels.grouped import GroupedOperator
from repro.engine.program import bound_plans
from repro.obs import OBS
from test_plan_compile import NCX, NCV, CDIM, VDIM, random_termset, random_aux

rng = np.random.default_rng(1234)
ts, aux = random_termset(rng), random_aux(rng)
f_cm = rng.standard_normal((NCX, ts.nin, NCV))
with compiler_config(cache={str(cache_dir)!r}):
    (plan,) = bound_plans([(GroupedOperator(ts, CDIM, VDIM), (NCX, NCV))], aux)
    out = plan.run(aux, f_cm, np.zeros((NCX, ts.nout, NCV)))
counts = plan_counts(OBS.metrics.snapshot())
assert counts["compiled"] >= 1 and counts["cache_stores"] >= 1
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
    before = OBS.metrics.snapshot()
    got = apply_with(ts, aux, f_cm, cache=str(cache_dir))
    delta = plans_since(before)
    assert delta["compiled"] == 0 and delta["hydrated"] >= 1
    assert np.array_equal(np.load(out_file), got)


def test_plan_cache_off_builds_the_kernel_once_into_the_cache_dir(tmp_path):
    """With plan payloads off, the compiled kernel still lives in the one
    cache directory: a second process loads what the first built, and no
    per-process temp directory is left behind."""
    if cc_available() is None:
        pytest.skip("no C compiler")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(tmp_path),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    env.pop("REPRO_KERNEL_TIER", None)
    cmd = [sys.executable, "-m", "repro", "run", "two_stream", "--set", "steps=1",
           "--set", "nx=4", "--set", "nv=8", "--set", "plan_cache=off", "--json"]
    built = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=300)
        assert proc.returncode == 0, proc.stderr
        built.append(json.loads(proc.stdout)["plans"]["kernels_built"])
    assert built[1] == 0, built
    assert not list(tmp_path.glob("repro-kernels-*"))


def test_hydrated_plan_artifacts_roundtrip(case, run_op):
    """ExecutionPlan.to_artifacts/from_artifacts is the serialization the
    cache stores; the round trip must preserve every operator block."""
    ts, aux, f_cm = case
    plan = ExecutionPlan(ts, CDIM, VDIM, aux, (NCX, NCV))
    meta, arrays = plan.to_artifacts()
    # matrix-free on disk too: values live on the exact non-zeros, never on
    # a dense (nout x nin) block
    assert sum(len(g.terms) for g in plan._per_cell) > 0
    assert all(a.ndim == 1 or a.shape[1] < ts.nout * ts.nin for a in arrays.values())
    clone = ExecutionPlan.from_artifacts(
        ts, CDIM, VDIM, aux, (NCX, NCV), meta, arrays
    )
    out_a = np.zeros((NCX, ts.nout, NCV))
    out_b = np.zeros_like(out_a)
    run_op(plan, f_cm, aux, out_a)
    run_op(clone, f_cm, aux, out_b)
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
    before = OBS.metrics.snapshot()
    with compiler_config(cache=str(tmp_path / "plans")):
        compile_plan(ts, CDIM, VDIM, aux, (NCX, NCV))
    delta = plans_since(before)
    assert delta["kernels_built"] + delta["kernels_loaded"] == 1
    assert delta["compiled"] == 1 and delta["compile_seconds"] > 0


def test_default_config_is_auto_tier_no_cache():
    cfg = CompilerConfig()
    assert cfg.tier == "auto" and cfg.cache is None
