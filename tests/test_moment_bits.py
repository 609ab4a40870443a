"""The compiled moment call and the LBO's weak division against their
references, byte for byte.

``MomentCalculator.sums`` runs every requested moment in one call of the
compiled kernel's ``moments`` entry point: each plan sweeps one
configuration cell into a row buffer, and each row is summed over the
velocity cells in numpy's pairwise order.  The numpy tier sweeps a
phase-space buffer and reduces it with ``np.sum``; the two must agree in
every byte, at any velocity block size and any thread count.  The LBO's
primitive moments come from a per-cell LU (the compiled ``weak_primitive``
or its numpy form, the same bits), within roundoff of the einsum + LAPACK
oracle in ``weak_oracle``.
"""

import numpy as np
import pytest

import repro.moments.calc as calc
from repro.collisions import LBOCollisions
from repro.engine import compiler_config
from repro.engine.compile import compiled_kernel
from repro.grid import Grid, PhaseGrid
from repro.kernels import get_vlasov_kernels
from repro.moments import MomentCalculator
from repro.moments.weak_ops import triple_product_tensor, weak_primitive
from weak_oracle import primitive_moments as oracle_primitive_moments

TIERS = ("cc", "numpy")


def _phase_grid(cdim, vel_cells):
    vdim = len(vel_cells)
    return PhaseGrid(
        Grid([0.0] * cdim, [1.0] * cdim, [3, 2][:cdim]),
        Grid([-4.0] * vdim, [3.0] * vdim, list(vel_cells)),
    )


def _state(pg, num_basis, seed=5):
    """Values over many binades, so a changed summation order shows."""
    rng = np.random.default_rng(seed)
    shape = pg.conf.cells + (num_basis,) + pg.vel.cells
    return rng.standard_normal(shape) * np.exp(3.0 * rng.standard_normal(shape))


def _moment_sets(vdim):
    m1 = tuple(f"M1{'xyz'[j]}" for j in range(vdim))
    every = ("M0",) + m1 + ("M2",)
    return [(name,) for name in every] + [m1, every, ("M2", "M0")]


def _sums(tier, pg, kern, f, names):
    with compiler_config(tier=tier, cache="off"):
        mom = MomentCalculator(pg, kern)
        return mom.sums(names, f).copy()


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "cdim, vel_cells", [(1, (5,)), (1, (5, 4)), (2, (5, 4)), (1, (5, 4, 3))],
    ids=["1x1v", "1x2v", "2x2v", "1x3v"],
)
def test_every_moment_set_is_byte_equal_across_tiers(cdim, vel_cells, p):
    pg = _phase_grid(cdim, vel_cells)
    kern = get_vlasov_kernels(cdim, pg.vdim, p, "serendipity")
    f = _state(pg, kern.num_basis)
    for names in _moment_sets(pg.vdim):
        got = _sums("cc", pg, kern, f, names)
        want = _sums("numpy", pg, kern, f, names)
        assert got.shape == (pg.conf.num_cells, len(names), kern.cfg_basis.num_basis)
        assert got.tobytes() == want.tobytes(), names


@pytest.mark.parametrize(
    "vel_cells", [(1,), (7,), (8,), (9,), (127,), (128,), (129,), (257,), (14, 14)],
    ids=lambda cells: "x".join(map(str, cells)),
)
def test_pairwise_order_holds_at_every_block_size_and_thread_count(vel_cells, monkeypatch):
    """Blocks of 1 to 257 velocity cells (196 as 14 x 14): below 8, at the
    8-accumulator leaf sizes and across the 128 split; 1, 2 and one thread
    per configuration cell."""
    pg = _phase_grid(1, vel_cells)
    kern = get_vlasov_kernels(1, pg.vdim, 1, "serendipity")
    f = _state(pg, kern.num_basis, seed=len(vel_cells) * 1000 + vel_cells[0])
    names = ("M0",) + tuple(f"M1{'xyz'[j]}" for j in range(pg.vdim)) + ("M2",)
    want = _sums("numpy", pg, kern, f, names)
    for threads in (1, 2, pg.conf.num_cells):
        monkeypatch.setattr(calc, "cell_threads", lambda n, work, k=threads: k)
        assert _sums("cc", pg, kern, f, names).tobytes() == want.tobytes(), threads


def test_every_entry_point_takes_the_one_call():
    """``compute``, ``stacked``, ``charge_density``, ``current_density``,
    ``particle_energy`` and ``number`` all read :meth:`sums`."""
    pg = _phase_grid(1, (5, 4))
    kern = get_vlasov_kernels(1, 2, 2, "serendipity")
    f = _state(pg, kern.num_basis)
    with compiler_config(tier="cc", cache="off"):
        mom = MomentCalculator(pg, kern)
        seen = []
        sums = mom.sums
        mom.sums = lambda names, f: seen.append(names) or sums(names, f)
        m0 = mom.compute("M0", f)
        assert mom.stacked(("M0", "M2"), f)[0].tobytes() == m0.tobytes()
        assert mom.charge_density(f, -2.0).tobytes() == (-2.0 * m0).tobytes()
        out = np.full(pg.conf.cells + (3, mom.num_conf_basis), np.nan)
        current = mom.current_density(f, 3.0, out=out)
        assert current[..., 2, :].tobytes() == np.zeros_like(m0).tobytes()
        assert current[..., 1, :].tobytes() == (mom.compute("M1y", f) * 3.0).tobytes()
        mom.particle_energy(f, 1.0)
        mom.number(f)
    assert seen == [("M0",), ("M0", "M2"), ("M0",), ("M1x", "M1y"), ("M1y",), ("M2",), ("M0",)]
    assert len(mom.pool) == 0  # no phase-space buffer was taken


# --------------------------------------------------------------------- #
# the LBO's weak division
def _lbo_case(cdim, vel_cells, p):
    pg = _phase_grid(cdim, vel_cells)
    lbo = LBOCollisions(pg, p, nu=0.7)
    mom = MomentCalculator(pg, get_vlasov_kernels(cdim, pg.vdim, p))
    rng = np.random.default_rng(11)
    f = 0.05 * rng.standard_normal(pg.conf.cells + (lbo.basis.num_basis,) + pg.vel.cells)
    f[(slice(None),) * cdim + (0,)] += 1.0  # positive density
    return lbo, mom, f


CASES = [(1, (6,), 1), (1, (6,), 2), (1, (5, 4), 1), (1, (5, 4), 2), (2, (5, 4), 2), (1, (4, 3, 3), 1)]


@pytest.mark.parametrize("cdim, vel_cells, p", CASES, ids=lambda c: str(c))
def test_lbo_primitive_moments_are_equal_on_both_tiers_and_near_lapack(cdim, vel_cells, p):
    got = {}
    for tier in TIERS:
        with compiler_config(tier=tier, cache="off"):
            lbo, mom, f = _lbo_case(cdim, vel_cells, p)
            u, vtsq = lbo.primitive_moments(f, mom)
            got[tier] = (u.copy(), vtsq.copy())
            names = ("M0",) + tuple(f"M1{'xyz'[j]}" for j in range(lbo.grid.vdim)) + ("M2",)
            moments = mom.stacked(names, f)
    for a, b in zip(*got.values()):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got["cc"], oracle_primitive_moments(moments, lbo.cfg_basis)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_the_compiled_division_is_the_numpy_form_where_rows_pivot():
    """Random moments (every cell's ``M0`` matrix pivots) through both
    forms of ``weak_primitive``."""
    with compiler_config(tier="cc", cache="off"):
        kern = compiled_kernel()
    if kern is None:
        pytest.skip("no compiled kernel on this platform")
    from repro.basis.modal import ModalBasis

    t = triple_product_tensor(ModalBasis(2, 2, "serendipity"))
    ncfg, vdim, n = 7, 2, t.shape[0]
    m = np.random.default_rng(2).standard_normal((ncfg, vdim + 2, n))
    want = np.empty((vdim + 1, n, ncfg))
    weak_primitive(m, t, want)
    got = np.empty_like(want)
    args = (m.ctypes.data, (vdim + 2) * n, n, got.ctypes.data, ncfg, n, vdim, t.ctypes.data)
    assert kern.divide(*args) == -1
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("tier", TIERS)
def test_a_singular_cell_raises_on_both_tiers(tier):
    with compiler_config(tier=tier, cache="off"):
        lbo, mom, f = _lbo_case(1, (6,), 2)
        f[1] = 0.0  # no particles in configuration cell 1
        with pytest.raises(np.linalg.LinAlgError):
            lbo.primitive_moments(f, mom)
        with pytest.raises(np.linalg.LinAlgError):
            lbo.refresh(f, mom, token=(0, 0, 0.0))
        # nothing was kept for that state: mended in place, it is divided afresh
        good = _lbo_case(1, (6,), 2)[2]
        f[1] = good[1]
        lbo.refresh(f, mom, token=(0, 0, 0.0))
        fresh = LBOCollisions(lbo.grid, 2, nu=0.7)
        fresh.primitive_moments(good, mom)
        assert lbo._prim.tobytes() == fresh._prim.tobytes()
