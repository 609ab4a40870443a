"""TermSet runtime vs unrolled generated source: the two kernel evaluation
paths must agree to machine precision, and the multiplication accounting
(Fig. 1) must be consistent."""

import numpy as np
import pytest

from repro.cas.codegen import compile_kernel, count_multiplications, emit_kernel_source
from repro.grid import Grid, PhaseGrid
from repro.kernels import four_sided_kernels, get_vlasov_kernels
from repro.kernels.termset import TermSet, symbol_value


@pytest.fixture(scope="module")
def bundle_1x2v():
    return get_vlasov_kernels(1, 2, 1, "tensor")


def _aux_for(pg, rng, npc):
    aux = pg.base_aux()
    aux["qm"] = -1.0
    for comp in range(3):
        for k in range(npc):
            aux[f"E{comp}_{k}"] = pg.conf_coefficient_array(
                rng.standard_normal(pg.conf.cells)
            )
            aux[f"B{comp}_{k}"] = pg.conf_coefficient_array(
                rng.standard_normal(pg.conf.cells)
            )
    return aux


def test_unrolled_source_matches_termset(bundle_1x2v, rng):
    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2, -2], [2, 2], [4, 4]))
    aux = _aux_for(pg, rng, bundle_1x2v.cfg_basis.num_basis)
    f = rng.standard_normal((bundle_1x2v.num_basis,) + pg.cells)
    surf_stream, surf_accel = four_sided_kernels(bundle_1x2v)
    for ts in [bundle_1x2v.vol_stream[0], bundle_1x2v.vol_accel[0],
               surf_stream[0][("L", "L")], surf_accel[1][("R", "R")]]:
        out_ts = np.zeros_like(f)
        ts.apply(f, aux, out_ts)
        kern = compile_kernel("k", ts)
        out_gen = np.zeros_like(f)
        kern(f, aux, out_gen)
        assert np.allclose(out_ts, out_gen, rtol=1e-13, atol=1e-13)


def test_emitted_source_is_flat_fma_code(bundle_1x2v):
    src = emit_kernel_source("vol", bundle_1x2v.vol_stream[0])
    assert src.startswith("def vol(f, aux, out):")
    # no loops, no matrices: the matrix-free property of Fig. 1
    assert "for " not in src
    assert "dot" not in src
    assert "out[" in src


def test_multiplication_count_positive_and_consistent(bundle_1x2v):
    ts = bundle_1x2v.vol_stream[0]
    count = count_multiplications(ts)
    assert count > 0
    # every tensor entry contributes at most 2 multiplications plus hoisting
    assert count <= 3 * ts.num_entries + 10


def test_empty_termset():
    ts = TermSet(4, 4, {})
    assert ts.is_empty()
    f = np.ones((4, 5))
    out = np.zeros((4, 5))
    ts.apply(f, {}, out)
    assert np.all(out == 0)
    src = emit_kernel_source("empty", ts)
    assert "pass" in src


def test_termset_apply_matches_dense_reference(rng):
    entries = {
        ("a",): [(0, 1, 2.0), (2, 0, -1.5)],
        (): [(1, 1, 3.0)],
        ("a", "b"): [(2, 2, 0.5)],
    }
    ts = TermSet(3, 3, entries)
    f = rng.standard_normal((3, 7))
    aux = {"a": 2.0, "b": rng.standard_normal(7)}
    out = np.zeros((3, 7))
    ts.apply(f, aux, out)
    # dense reference
    ref = np.zeros((3, 7))
    ref[0] += 2.0 * 2.0 * f[1]
    ref[2] += -1.5 * 2.0 * f[0]
    ref[1] += 3.0 * f[1]
    ref[2] += 0.5 * 2.0 * aux["b"] * f[2]
    assert np.allclose(out, ref, atol=1e-14)


def test_termset_scale_parameter(rng):
    ts = TermSet(2, 2, {(): [(0, 0, 1.0), (1, 1, 2.0)]})
    f = rng.standard_normal((2, 4))
    out1 = np.zeros_like(f)
    ts.apply(f, {}, out1, scale=-0.5)
    out2 = np.zeros_like(f)
    ts.apply(-0.5 * f, {}, out2)
    assert np.allclose(out1, out2, atol=1e-15)


def _triple_built_terms(nout, entries):
    """The per-entry construction ``TermSet`` used before it stored arrays:
    ``[(sym, csr_matrix, active_cols)]`` from lists of Python triples."""
    import scipy.sparse as sp

    terms = []
    for sym in sorted(s for s, e in entries.items() if e):
        triples = entries[sym]
        rows = np.array([t[0] for t in triples], dtype=np.int64)
        cols = np.array([t[1] for t in triples], dtype=np.int64)
        vals = np.array([t[2] for t in triples], dtype=float)
        active = np.unique(cols)
        remap = {c: j for j, c in enumerate(active)}
        cols_r = np.array([remap[c] for c in cols], dtype=np.int64)
        mat = sp.csr_matrix((vals, (rows, cols_r)), shape=(nout, active.size))
        terms.append((sym, mat, active))
    return terms


def _assert_same_csr_bits(termset, entries):
    assert termset.entries_by_symbol() == {s: e for s, e in entries.items() if e}
    expected = _triple_built_terms(termset.nout, entries)
    assert [t.sym for t in termset.terms] == [sym for sym, _, _ in expected]
    for term, (_, mat, active) in zip(termset.terms, expected):
        assert np.array_equal(term.cols, active) and term.cols.dtype == active.dtype
        assert term.matrix.shape == mat.shape
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(term.matrix, attr), getattr(mat, attr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_array_construction_matches_triple_built_csr_bits(bundle_1x2v):
    """Array-backed construction, ``scaled`` and ``stack_termsets`` produce the
    triples and csr bits of the per-entry Python construction."""
    from repro.kernels.termset import merge_termsets, stack_termsets

    sides = four_sided_kernels(bundle_1x2v)[1][0]
    for ts in (bundle_1x2v.vol_accel[1], sides[("L", "R")], bundle_1x2v.moments["M2"]):
        entries = ts.entries_by_symbol()
        _assert_same_csr_bits(ts, entries)
        _assert_same_csr_bits(TermSet(ts.nout, ts.nin, entries), entries)
        scaled = {s: [(l, m, c * -0.5) for l, m, c in e] for s, e in entries.items()}
        _assert_same_csr_bits(ts.scaled(-0.5), scaled)

    pair = [sides[("L", "L")], sides[("R", "L")]]
    stacked, merged = {}, {}
    for i, ts in enumerate(pair):
        for sym, triples in ts.entries_by_symbol().items():
            stacked.setdefault(sym, []).extend((l + i * ts.nout, m, c) for l, m, c in triples)
            merged.setdefault(sym, []).extend(triples)
    _assert_same_csr_bits(stack_termsets(pair), stacked)
    # merging repeats (l, m) slots under one symbol: csr construction adds them
    _assert_same_csr_bits(merge_termsets(pair), merged)


def test_a_thrice_repeated_slot_adds_left_to_right_in_entry_order(rng):
    """Entries sharing a symbol's ``(l, m)`` slot add as ``(c0 + c1) + c2``
    in entry order, wherever they sit in the list (scipy's unstable sort
    leaves that order open); the random magnitudes make the other grouping,
    ``c0 + (c1 + c2)``, differ on some slot."""
    slots = [(l, m) for l in range(5) for m in range(4)]
    coeffs = rng.standard_normal((len(slots), 3)) * 10.0 ** rng.integers(-9, 9, (len(slots), 3))
    entries = [(l, m, c) for (l, m), row in zip(slots, coeffs) for c in row]
    # shuffle the slots against each other, keep each slot's own order
    where = rng.permutation(len(entries))
    order = np.concatenate([np.sort(where[i::len(slots)]) for i in range(len(slots))])
    shuffled = [entries[i] for i in np.argsort(order)]
    term = TermSet(5, 4, {("a",): shuffled}).terms[0]
    dense = np.zeros((5, 4))
    for (l, m), (c0, c1, c2) in zip(slots, coeffs.tolist()):
        dense[l, m] = (c0 + c1) + c2
    assert np.array_equal(term.cols, np.arange(4))
    assert term.matrix.nnz == len(slots)
    assert term.matrix.indptr.tolist() == list(range(0, 21, 4))
    assert term.matrix.indices.tolist() == [m for _l, m in slots]
    assert term.matrix.data.tobytes() == dense.tobytes()
    assert any((c0 + c1) + c2 != c0 + (c1 + c2) for c0, c1, c2 in coeffs.tolist())


def test_apply_matches_scipy_matmul_bits(bundle_1x2v, rng):
    """``TermSet.apply`` writes the bytes of summing each term's
    ``scipy.sparse.csr_matrix @ x`` product into ``out``."""
    import scipy.sparse as sp

    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2, -2], [2, 2], [4, 4]))
    aux = _aux_for(pg, rng, bundle_1x2v.cfg_basis.num_basis)
    ts = bundle_1x2v.vol_accel[1]
    f = rng.standard_normal((ts.nin,) + pg.cells)
    out = rng.standard_normal((ts.nout,) + pg.cells)
    want = out.reshape(ts.nout, -1).copy()
    for term in ts.terms:
        mat = term.matrix
        ref = sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
        g = f[term.cols] * symbol_value(aux, term.sym) * -0.5
        want += ref @ np.ascontiguousarray(g.reshape(term.cols.size, -1))
    ts.apply(f, aux, out, scale=-0.5)
    assert out.tobytes() == want.tobytes()
