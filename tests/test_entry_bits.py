"""The per-configuration-cell sweep entries and the 1-D Poisson solve, byte
for byte on both tiers.

A plan group whose terms carry configuration-varying factors sweeps one row
of entries per configuration cell, ``data[c] = Σ_t coef_t[c] · stack_t``
with ``coef_t = row_t · scal_t`` (times any further rows, in order).  The
rows are formed before they are swept — by the compiled kernel
(``form_entries`` for a plan run on its own, inside ``cell_rhs`` by the
thread that runs the cells for a program) or by whole-array numpy passes — and both take
one order: the first term's product, then each further term's product
added, in term order.  :func:`oracle` restates that order in plain Python
floats, so neither tier can drift from it (a fused or blocked product would
not hold it: it rounds differently and loses the sign of a zero).

``Poisson1D.solve`` is one compiled call; its numpy form performs the same
float operations in the same order, so both give the same bytes, and both
refuse the same non-neutral charge.
"""

import numpy as np
import pytest

import repro.engine.plan as plan_module
from repro.basis import ModalBasis
from repro.cas.codegen import cc_available
from repro.engine import compiler_config
from repro.engine.compile import compile_plan
from repro.fields.poisson import NonNeutralError, Poisson1D
from repro.grid import Grid, PhaseGrid
from repro.kernels.termset import TermSet
from repro.vlasov.modal_solver import VlasovModalSolver

TIERS = ["numpy", pytest.param("cc", marks=pytest.mark.skipif(
    cc_available() is None, reason="no C compiler"))]
NOUT, NIN, NCV = 4, 5, 3


def oracle(terms, stack, rows, svals):
    """``data[c, k]`` in Python floats: per term its coefficient (the first
    row times the scalar product, times each further row), then the first
    term's product and each further product added in term order."""
    ncfg, nnz = len(next(iter(rows.values()))), stack.shape[1]
    out = np.empty((ncfg, nnz))
    for c in range(ncfg):
        coefs = []
        for scalar_names, cfg_names in terms:
            scal = 1.0
            for name in scalar_names:
                scal = scal * svals[name]
            coef = float(rows[cfg_names[0]][c]) * scal
            for name in cfg_names[1:]:
                coef = coef * float(rows[name][c])
            coefs.append(coef)
        for k in range(nnz):
            acc = coefs[0] * float(stack[0, k])
            for t in range(1, len(coefs)):
                acc = acc + coefs[t] * float(stack[t, k])
            out[c, k] = acc
    return out


def _symbols(nterms):
    """``nterms`` configuration-varying symbols, one with a scalar factor
    and one a product of two configuration factors."""
    syms = [(f"c{t}",) for t in range(nterms)]
    if nterms > 1:
        syms[1] = ("c1", "s0")
    if nterms > 2:
        syms[2] = ("c0", "c2")
    return syms


def _case(rng, ncfg, nterms):
    """A termset of ``nterms`` configuration-varying terms on distinct
    slots of one shared pattern, and aux rows over many binades with zeros,
    negative zeros and an exactly cancelling pair of terms."""
    slots = [(l, m) for l in range(NOUT) for m in range(NIN)]
    entries = {}
    for sym in _symbols(nterms):
        picks = rng.choice(len(slots), size=6, replace=False)
        vals = rng.standard_normal(6) * np.exp2(rng.integers(-20, 20, 6))
        entries[sym] = [(*slots[i], float(v)) for i, v in zip(picks, vals)]
    if nterms > 3:
        # terms 3 and 4 share their entries and carry opposite rows
        entries[("c4",)] = list(entries[("c3",)])
    aux = {"s0": float(rng.standard_normal())}
    for t in range(nterms):
        row = rng.standard_normal(ncfg) * np.exp2(rng.integers(-30, 30, ncfg))
        if t % 3:
            row[t % ncfg] = 0.0 if t % 3 == 1 else -0.0
        aux[f"c{t}"] = row
    if nterms > 3:
        aux["c4"] = -aux["c3"]
    aux = {n: (v.reshape(ncfg, 1) if isinstance(v, np.ndarray) else v) for n, v in aux.items()}
    return TermSet(NOUT, NIN, entries), aux


def _union_stack(ts, terms, nnz):
    """Each term's values on the union of the terms' slots (row-major,
    columns ascending) — the pattern a per-cell group sweeps."""
    by_sym = ts.entries_by_symbol()
    slots = sorted({(l, m) for sym in by_sym for l, m, _v in by_sym[sym]})
    assert len(slots) == nnz
    where = {slot: k for k, slot in enumerate(slots)}
    stack = np.zeros((len(terms), nnz))
    for t, (scalar_names, cfg_names) in enumerate(terms):
        sym = next(s for s in by_sym if sorted(s) == sorted(scalar_names + cfg_names))
        for l, m, v in by_sym[sym]:
            stack[t, where[l, m]] = v
    return stack


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("nterms", [1, 3, 8])
@pytest.mark.parametrize("ncfg", [1, 2, 7])
def test_per_cell_entries_are_the_products_added_in_term_order(ncfg, nterms, tier, monkeypatch):
    """A one-cell grid never classifies a factor as configuration-varying
    (it is a scalar there); at ``ncfg = 1`` the signature is forced to
    ``c`` so the formation is covered at that size too."""
    rng = np.random.default_rng(1000 * ncfg + nterms)
    ts, aux = _case(rng, ncfg, nterms)
    if ncfg == 1:
        classify = plan_module.classify_aux_value
        monkeypatch.setattr(
            plan_module, "classify_aux_value",
            lambda val, cdim, vdim: "c" if np.ndim(val) == 2 else classify(val, cdim, vdim),
        )
    with compiler_config(tier=tier, cache="off"):
        plan = compile_plan(ts, 1, 1, aux, (ncfg, NCV))
        plan.bind(aux)
        plan.refresh(aux)
    assert plan.tier == tier
    (grp,) = plan._groups
    assert grp.per_cell and len(grp.terms) == nterms
    nnz = grp.indices.size
    stack = _union_stack(ts, grp.terms, nnz)
    assert np.array_equal(grp.stack, stack)
    rows = {n: np.asarray(v).reshape(ncfg) for n, v in aux.items() if n.startswith("c")}
    want = oracle(grp.terms, stack, rows, aux)
    assert np.asarray(grp.data).tobytes() == want.tobytes()


@pytest.mark.parametrize("tier", TIERS)
def test_rows_that_are_not_views_are_copied_and_follow_mutation(tier):
    """A configuration factor broadcast along a configuration axis, or of
    another dtype, is not a float64 view of its memory: its row is a copy,
    re-gathered before every formation, so in-place mutation still shows."""
    ts = TermSet(NOUT, NIN, {("c0",): [(0, 1, 1.5), (2, 3, -0.25)],
                             ("c1", "s0"): [(0, 1, 3.0), (1, 4, 0.5)]})
    aux = {"c0": np.array([0.5, -2.0, 3.0]).reshape(3, 1, 1),
           "c1": np.arange(1.0, 7.0, dtype=np.float32).reshape(3, 2, 1),
           "s0": 0.75}
    with compiler_config(tier=tier, cache="off"):
        plan = compile_plan(ts, 2, 1, aux, (3, 2, NCV))
        plan.bind(aux)
        for _ in range(2):
            plan.refresh(aux)
            (grp,) = plan._groups
            rows = {n: np.broadcast_to(aux[n], (3, 2, 1)).astype(float).reshape(6)
                    for n in ("c0", "c1")}
            want = oracle(grp.terms, grp.stack, rows, aux)
            assert np.asarray(grp.data).tobytes() == want.tobytes()
            aux["c0"] *= -3.0
            aux["c1"] += 1


@pytest.mark.parametrize("tier", TIERS)
def test_entries_formed_inside_the_cell_program_follow_the_same_order(tier):
    """The acceleration plans of a 1X1V solver, after one program call: on
    the compiled tier their entries were formed inside ``cell_rhs``, by the
    thread that runs the cells."""
    pg = PhaseGrid(Grid([0.0], [1.0], [5]), Grid([-3.0], [3.0], [6]))
    rng = np.random.default_rng(7)
    with compiler_config(tier=tier, cache="off"):
        solver = VlasovModalSolver(pg, 2)
        f = rng.standard_normal(solver._program.in_shape)
        em = rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis))
        em[2, 0] = 0.0
        em[3, 0] = -0.0
        solver.rhs(f, em, out=np.empty(solver._program.own_shape))
        aux = solver.field_aux(em)
        plans = solver._program._plans(aux)
    per_cell = [(plan, grp) for plan in plans for grp in plan._groups if grp.per_cell]
    assert per_cell and all(plan.tier == tier for plan, _grp in per_cell)
    for plan, grp in per_cell:
        rows = {n: np.asarray(aux[n]).reshape(plan.ncfg) for _sn, cn in grp.terms for n in cn}
        want = oracle(grp.terms, grp.stack, rows, aux)
        assert np.asarray(grp.data).tobytes() == want.tobytes()


# --------------------------------------------------------------------- #
# the 1-D Poisson solve
def _poisson(tier, nx, p):
    with compiler_config(tier=tier, cache="off"):
        return Poisson1D(Grid([0.0], [2.0], [nx]), ModalBasis(1, p), epsilon0=0.7)


def _neutral_rho(rng, nx, npc):
    rho = rng.standard_normal((nx, npc)) * np.exp2(rng.integers(-8, 8, (nx, npc)))
    rho[:, 0] -= rho[:, 0].sum() / nx
    return rho


@pytest.mark.skipif(cc_available() is None, reason="no C compiler")
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("nx", [1, 2, 9, 130, 300])
def test_the_compiled_poisson_solve_is_its_numpy_form(nx, p):
    """Grids below, at and above numpy's 8-value and 128-value pairwise
    blocks, and an all-zero charge (signed zeros in the map)."""
    compiled, reference = _poisson("cc", nx, p), _poisson("numpy", nx, p)
    assert compiled._call is not None and reference._call is None
    rng = np.random.default_rng(nx * 10 + p)
    for rho in (_neutral_rho(rng, nx, p + 1), np.zeros((nx, p + 1))):
        got = compiled.solve(rho.copy())
        want = reference.solve(rho.copy())
        assert got.tobytes() == want.tobytes()
        assert compiled._solve_numpy(rho.copy())[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("tier", TIERS)
def test_both_poisson_forms_refuse_the_same_charge(tier):
    solver = _poisson(tier, 16, 2)
    rho = _neutral_rho(np.random.default_rng(3), 16, 3)
    solver.solve(rho)
    rho[5, 0] += 1e-6
    with pytest.raises(NonNeutralError, match="net charge"):
        solver.solve(rho)
    # inside the guard the residual is redistributed, not refused
    rho[5, 0] -= 1e-6 - 1e-10
    solver.solve(rho, neutral_tol=1e-8)
