"""Surface kernels in the face-mode space.

``generate_face_termsets`` factors each direction's four ``Np x Np`` side
kernels as ``K[(t, s)] = sigma_t trace[t].T @ flux @ trace[s]``.  The solvers
apply only the factors, so the pinned side kernels (``test_kernel_bits.py``)
are the oracle here: every entry of every side kernel must come back from the
factors, with the same sparsity pattern.

The flux factor runs through ``ExecutionPlan.run_faces`` (gather two trace
slots, ``Nf x Nf`` flux, scatter to both slots): the compiled ``face_flux``
must equal the numpy reference byte for byte and touch nothing but the
direction's slots — on one thread and split over several, as must the
compiled ``fused_sweep`` of the volume operator.

No module of the package applies the side kernels: they are generated on
demand as the Fig. 1/2 cost model (``kernels.flops.four_sided_kernels``),
and a guard below keeps it that way.
"""

from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.modal import ModalBasis
from repro.basis.multiindex import FAMILIES, multi_indices
from repro.cas.poly import Poly
import repro.engine.plan as plan_module
import repro.engine.program as program_module
from repro.dist.blocks import BlockGrid
from repro.engine import FaceMap, compiler_config
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels
from repro.kernels.flops import four_sided_kernels, modal_update_multiplications
from repro.kernels.generator import (
    FACE_SIGN,
    FluxSpec,
    FluxTerm,
    generate_face_termsets,
    generate_surface_termsets,
)
from repro.vlasov.modal_solver import VlasovModalSolver
from test_generator_exact import _assert_matches, _legendre_product, _reference

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUNDLES = [
    (1, 1, 1, "serendipity"),
    (1, 1, 2, "serendipity"),
    (1, 2, 2, "serendipity"),
    (2, 2, 1, "serendipity"),
    (2, 2, 2, "serendipity"),
    (1, 1, 2, "tensor"),
    (1, 1, 2, "maximal-order"),
]
#: "4 ulp", measured as a relative distance of 4 * 2**-52
ULP4 = 4 * np.finfo(float).eps


def _by_slot(termset):
    return {
        sym: {(l, m): c for l, m, c in triples}
        for sym, triples in termset.entries_by_symbol().items()
    }


def _side_kernel_from_factors(face, test_side, state_side):
    """``{sym: {(l, m): value}}`` of ``sigma_t trace[t].T @ flux @ trace[s]``."""
    trace = {}
    for side in (test_side, state_side):
        (triples,) = face.trace[side].entries_by_symbol().values()
        assert [l for _, l, _ in triples] == list(range(face.trace[side].nin))
        trace[side] = [(a, value) for a, _, value in triples]
    out = {}
    for sym, slots in _by_slot(face.flux).items():
        out[sym] = {
            (l, m): FACE_SIGN[test_side] * tl * slots[(a, b)] * tm
            for l, (a, tl) in enumerate(trace[test_side])
            for m, (b, tm) in enumerate(trace[state_side])
            if (a, b) in slots
        }
    return out


def _assert_side_kernel(face, test_side, state_side, termset):
    want = _by_slot(termset)
    got = _side_kernel_from_factors(face, test_side, state_side)
    assert set(got) == set(want)
    for sym in want:
        assert set(got[sym]) == set(want[sym])  # same sparsity pattern
        for slot, value in want[sym].items():
            assert abs(got[sym][slot] - value) <= ULP4 * abs(value)


@pytest.mark.parametrize("key", BUNDLES, ids=str)
def test_face_factors_reproduce_the_side_kernels(key):
    k = get_vlasov_kernels(*key)
    nf = len(multi_indices(k.cdim + k.vdim - 1, k.poly_order, k.family))
    stream, accel = four_sided_kernels(k)
    pairs = list(zip(k.face_stream, stream)) + list(zip(k.face_accel, accel))
    assert [face.dim for face, _ in pairs] == list(range(k.cdim + k.vdim))
    for face, sides in pairs:
        assert (face.flux.nout, face.flux.nin) == (nf, nf)
        for (test_side, state_side), termset in sides.items():
            _assert_side_kernel(face, test_side, state_side, termset)


@pytest.mark.parametrize("key", BUNDLES, ids=str)
def test_face_space_costs_fewer_multiplications(key):
    mults = modal_update_multiplications(get_vlasov_kernels(*key))
    assert mults["surface_streaming_face"] < mults["surface_streaming"]
    assert mults["surface_acceleration_face"] < mults["surface_acceleration"]
    assert mults["total_face"] < mults["total"]


@st.composite
def face_cases(draw):
    ndim = draw(st.integers(1, 3))
    family = draw(st.sampled_from(FAMILIES))
    poly_order = draw(st.integers(0, 2))
    dim = draw(st.integers(0, ndim - 1))
    expo = st.tuples(*[st.integers(0, 3)] * ndim)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    poly = st.dictionaries(expo, coeff, min_size=0, max_size=3).map(lambda d: Poly(ndim, d))
    scale = st.sampled_from([1.0, -1.0, 2.0, 0.7071067811865476, -1.5811388300841898])
    terms = [
        FluxTerm(sym=(f"s{i}",), poly=draw(poly), scale=draw(scale))
        for i in range(draw(st.integers(1, 3)))
    ]
    return ndim, poly_order, family, dim, terms


@settings(max_examples=60, deadline=None)
@given(face_cases())
def test_face_generator_matches_brute_force(case):
    ndim, poly_order, family, dim, terms = case
    basis = ModalBasis(ndim, poly_order, family)
    face = generate_face_termsets(basis, FluxSpec(dim=dim, terms=tuple(terms)))
    # the face modes are the same family's basis in the other variables
    modes = multi_indices(ndim - 1, poly_order, family) if ndim > 1 else [()]
    norms = [float(np.sqrt(np.prod([(2 * a + 1) / 2 for a in alpha]))) for alpha in modes]
    polys = [_legendre_product(ndim - 1, alpha) for alpha in modes]
    _assert_matches(
        face.flux,
        _reference(
            terms, (f"rdx{dim}",), polys, polys, norms, norms,
            restrict=lambda poly: poly.substitute_value(dim, 1).drop_var(dim),
        ),
    )
    for side, sign in (("L", 1), ("R", -1)):
        want = {
            (modes.index(alpha[:dim] + alpha[dim + 1 :]), l): np.sqrt((2 * alpha[dim] + 1) / 2)
            * sign ** alpha[dim]
            for l, alpha in enumerate(basis.indices)
        }
        assert _by_slot(face.trace[side]) == {(): want}


def test_flux_depending_on_the_normal_coordinate_is_taken_from_the_lower_cell():
    """A flux depending on ``xi_dim`` (the LBO drag ``nu (u - v)``) enters
    the face kernels at ``xi_dim = +1``, the face as the cell below it sees
    it: the factors are those of the substituted flux, and they reproduce
    the side kernels whose state is the lower cell's."""
    basis = ModalBasis(2, 2, "serendipity")
    poly = Poly(2, {(0, 0): 1, (0, 1): Fraction(1, 2), (1, 2): -3, (2, 1): Fraction(2, 3)})

    def flux(poly):
        return FluxSpec(dim=1, terms=(FluxTerm(sym=("a",), poly=poly, scale=0.5),))

    face = generate_face_termsets(basis, flux(poly))
    at_face = generate_face_termsets(basis, flux(poly.substitute_value(1, 1)))
    assert _by_slot(face.flux) == _by_slot(at_face.flux)
    assert all(_by_slot(face.trace[s]) == _by_slot(at_face.trace[s]) for s in "LR")
    sides = generate_surface_termsets(basis, flux(poly))
    for test_side in "LR":
        _assert_side_kernel(face, test_side, "L", sides[(test_side, "L")])


def test_four_sided_kernels_have_no_runtime_caller():
    """Only their generator and the cost model name the side kernels' generator:
    every solver runs the face-mode factors."""
    allowed = {"kernels/generator.py", "kernels/flops.py"}
    offenders = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).as_posix() not in allowed
        and "generate_surface_termsets" in path.read_text()
    ]
    assert offenders == []


# --------------------------------------------------------------------- #
# the face primitive: compiled == numpy reference, nothing outside the slots
#: every vector-width tail of the compiled tile loop
VEL_CELLS = (1, 2, 3, 5, 8, 14, 33)
GUARD = 64


@st.composite
def face_flux_cases(draw):
    cdim, vdim = draw(st.sampled_from([(1, 1), (1, 2), (2, 2)]))
    vel = tuple(draw(st.sampled_from(VEL_CELLS)) for _ in range(vdim))
    if np.prod(vel) > 300:  # keep the 2V trace buffers small
        vel = (vel[0], 3)
    parent = tuple(draw(st.integers(2, 4)) for _ in range(cdim))
    return cdim, vdim, draw(st.integers(1, 2)), parent, vel, draw(st.integers(0, 10**6))


def _conf_grid(parent, ghost):
    """The whole periodic grid, or with ``ghost`` its block of all but the
    first and last cell along the ghosted axes."""
    grid = Grid([0.0] * len(parent), [1.0] * len(parent), list(parent))
    if not any(ghost):
        return grid
    ranges = [(1, n - 1) if g and n > 2 else (0, n) for n, g in zip(parent, ghost)]
    return BlockGrid(grid, ranges, ghost)


def _guarded(shape, rng):
    """A random contiguous array inside a NaN-filled allocation."""
    size = int(np.prod(shape))
    alloc = np.full(size + 2 * GUARD, np.nan)
    arr = alloc[GUARD : GUARD + size].reshape(shape)
    arr[...] = rng.standard_normal(shape)
    return alloc, arr


def thread_counts(parent, ghost):
    """The thread counts besides 1 a split compiled loop must not move a bit
    at: 2, 3, one per own configuration cell, and more than any of the
    case's loops has ranges (cells or faces)."""
    ncfg = int(np.prod(_conf_grid(parent, ghost).cells))
    return (2, 3, ncfg, 2 * ncfg + 1)


@contextmanager
def forced_threads(threads):
    """Bind every compiled call inside over ``threads`` threads, whatever
    the CPUs and the work: sweeps and face fluxes get the count as it is
    (the kernel clamps it to their ranges), cell programs at most one per
    cell, as the policy gives them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plan_module, "cell_threads", lambda n, work: threads)
        mp.setattr(program_module, "cell_threads", lambda n, work: min(n, threads))
        yield


def _apply_every_direction(run_op, case, tier, ghost, threads=1):
    """Trace buffers after one ``run_faces`` per direction, each starting
    from the same random traces with every row outside the direction's two
    slots NaN: ``[(direction, src allocation, dst allocation)]``; then the
    volume operator (per-cell groups) swept over random own cells into a
    fresh and into a random output: ``(accumulate, output allocation)``.
    The compiled calls run on ``threads`` threads."""
    cdim, vdim, poly_order, parent, vel, seed = case
    pg = PhaseGrid(_conf_grid(parent, ghost), Grid([-3.0] * vdim, [3.0] * vdim, list(vel)))
    out = []
    with compiler_config(tier=tier, cache="off"), forced_threads(threads):
        solver = VlasovModalSolver(pg, poly_order)
        rng = np.random.default_rng(seed)
        aux = solver.field_aux(rng.standard_normal(pg.conf.cells + (8, solver.num_conf_basis)))
        for q, (flux_op, faces) in enumerate(solver._flux_ops):
            src_alloc, src = _guarded(faces.src_shape, rng)
            dst_alloc, dst = (src_alloc, src) if not any(ghost) else _guarded(faces.dst_shape, rng)
            for buf in {id(src): src, id(dst): dst}.values():
                rows = np.ones(faces.nrows, dtype=bool)
                rows[faces.up : faces.up + faces.nf] = rows[faces.dn : faces.dn + faces.nf] = False
                buf[(slice(None),) * cdim + (rows,)] = np.nan
            run_op(flux_op, src, aux, dst, faces=faces)
            own = dst[(slice(None),) * cdim + (~rows,)]
            assert np.isfinite(own).all()  # nothing read from outside the slots
            out.append((q, src_alloc, dst_alloc))
        shape = solver._program.own_shape
        f = _guarded(shape, rng)[1]
        for accumulate in (False, True):
            y_alloc, y = _guarded(shape, rng)
            run_op(solver._vol_op, f, aux, y, accumulate)
            out.append((f"volume, accumulate={accumulate}", y_alloc))
    return out


def _assert_tiers_agree(run_op, case, ghost):
    want = _apply_every_direction(run_op, case, "numpy", ghost)
    for threads in (1,) + thread_counts(case[3], ghost):
        got = _apply_every_direction(run_op, case, "cc", ghost, threads)
        for (q, *cc), (_, *ref) in zip(got, want, strict=True):
            for a, b in zip(cc, ref):
                # whole allocations: the slots equal as bytes, every other
                # row and both guard bands still NaN
                assert a.tobytes() == b.tobytes(), f"{q}, {threads} threads"


@settings(max_examples=25, deadline=None)
@given(face_flux_cases())
def test_face_flux_in_place_equals_the_numpy_reference(run_op, case):
    """Periodic streaming and central acceleration faces on a whole grid,
    ``dst is src``, and the volume sweep, on one thread and split."""
    _assert_tiers_agree(run_op, case, ghost=(0,) * case[0])


@settings(max_examples=25, deadline=None)
@given(face_flux_cases(), st.integers(1, 3))
def test_face_flux_ghost_window_equals_the_numpy_reference(run_op, case, which):
    """A ``process:N`` block: ghosted traces in, ghost-free fluxes out, with
    ghost layers on one configuration axis and on both; one thread and
    split."""
    cdim = case[0]
    ghost = tuple((which >> d) & 1 for d in range(cdim))
    if not any(ghost):
        ghost = (1,) * cdim
    _assert_tiers_agree(run_op, case, ghost)


def test_malformed_face_map_is_rejected_before_the_kernel_runs(monkeypatch, run_op):
    pg = PhaseGrid(Grid([0.0], [1.0], [4]), Grid([-3.0], [3.0], [6]))
    with compiler_config(tier="cc", cache="off"):
        solver = VlasovModalSolver(pg, 2)
        aux = solver.field_aux(np.zeros(pg.conf.cells + (8, solver.num_conf_basis)))
        flux_op, good = solver._flux_ops[0]
        g = np.zeros(good.dst_shape)
        run_op(flux_op, g, aux, g, faces=good)  # the plan exists from here on
        (plan,) = flux_op._plans.values()

        def no_call(*args):  # pragma: no cover - the assertion
            raise AssertionError("the compiled kernel was called")

        monkeypatch.setattr(plan, "_cc_faces", no_call, raising=False)

        def face_map(table=good.table, slots=(good.up, good.dn), **kw):
            kw.setdefault("upwind", (good.wa, good.wb))
            return FaceMap(table, good.src_shape, good.dst_shape, 1, slots, good.nf, **kw)

        for column in range(5):
            table = good.table.copy()
            table[2, column] = 4  # four cells: 0..3
            with pytest.raises(ValueError, match="outside its buffer"):
                face_map(table)
        table = good.table.copy()
        table[1, 3] = table[0, 3]
        with pytest.raises(ValueError, match="same upper slot"):
            face_map(table)
        with pytest.raises(ValueError, match="slot rows"):
            face_map(slots=(good.up, good.nrows - good.nf + 1))
        with pytest.raises(ValueError, match="overlap"):
            face_map(slots=(good.up, good.up + 1))
        with pytest.raises(ValueError, match="either"):
            face_map(vaxis=0)
        with pytest.raises(ValueError, match="inside one configuration cell"):
            face_map(upwind=None, vaxis=0)  # a periodic table is no velocity-face table
        # a well-formed map for other buffers than the ones handed in
        strided = np.zeros((4, 2 * good.nrows, 6))[:, ::2]
        for src, dst in ((g, strided), (strided, g), (g, np.zeros((5,) + g.shape[1:]))):
            with pytest.raises(ValueError, match="C-contiguous float64 trace buffer"):
                run_op(flux_op, src, aux, dst, faces=good)
        shifted = face_map(np.roll(good.table, 1, axis=0)[:, [0, 2, 1, 3, 4]])
        assert good.in_place and not shifted.in_place
        with pytest.raises(ValueError, match="own their slots"):
            run_op(flux_op, g, aux, g, faces=shifted)
