"""The grouped (batched-BLAS) kernel path must match the sparse TermSet path
to roundoff — it evaluates the same generated coefficients, reassociated."""

import numpy as np
import pytest

from repro.engine import PlanSignatureError
from repro.engine.layout import phase_to_cell_major, phase_to_mode_major
from repro.grid import Grid, PhaseGrid
from repro.kernels import four_sided_kernels, get_vlasov_kernels
from repro.kernels.grouped import GroupedOperator
from repro.kernels.termset import TermSet


@pytest.fixture(scope="module")
def setup(rng):
    pg = PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2.0, -2.0], [2.0, 2.0], [4, 4]))
    bundle = get_vlasov_kernels(1, 2, 1, "serendipity")
    aux = pg.base_aux()
    aux["qm"] = -1.0
    for comp in range(3):
        for k in range(bundle.cfg_basis.num_basis):
            aux[f"E{comp}_{k}"] = pg.conf_coefficient_array(
                rng.standard_normal(pg.conf.cells)
            )
            aux[f"B{comp}_{k}"] = pg.conf_coefficient_array(
                rng.standard_normal(pg.conf.cells)
            )
    f = rng.standard_normal((bundle.num_basis,) + pg.cells)
    return pg, bundle, aux, f


@pytest.mark.parametrize("which", ["vol0", "vol1", "surfLL", "surfRL"])
def test_grouped_matches_sparse(setup, which):
    pg, bundle, aux, f = setup
    ts = {
        "vol0": bundle.vol_accel[0],
        "vol1": bundle.vol_accel[1],
        "surfLL": four_sided_kernels(bundle)[1][0][("L", "L")],
        "surfRL": four_sided_kernels(bundle)[1][1][("R", "L")],
    }[which]
    out_sparse = np.zeros_like(f)
    ts.apply(f, aux, out_sparse)
    op = GroupedOperator(ts, pg.cdim, pg.vdim)
    out_grouped = np.zeros(phase_to_cell_major(f, pg.cdim).shape)
    op.apply(phase_to_cell_major(f, pg.cdim), aux, out_grouped)
    scale = max(np.max(np.abs(out_sparse)), 1.0)
    assert np.max(
        np.abs(out_sparse - phase_to_mode_major(out_grouped, pg.cdim))
    ) / scale < 1e-13


def test_grouped_accumulates(setup):
    pg, bundle, aux, f = setup
    op = GroupedOperator(bundle.vol_accel[0], pg.cdim, pg.vdim)
    f_cm = phase_to_cell_major(f, pg.cdim)
    base = np.ones_like(f_cm)
    out = base.copy()
    op.apply(f_cm, aux, out)
    ref = np.zeros_like(f_cm)
    op.apply(f_cm, aux, ref)
    assert np.allclose(out - base, ref, atol=1e-14)


def test_grouped_on_sliced_cells(setup):
    """Surface applications pass face subsets; the grouped plan is shape
    independent and must broadcast the sliced aux correctly."""
    pg, bundle, aux, f = setup
    ts = four_sided_kernels(bundle)[1][0][("L", "R")]
    op = GroupedOperator(ts, pg.cdim, pg.vdim)
    f_sub = np.ascontiguousarray(f[:, :, 1:, :])
    out_a = np.zeros_like(f_sub)
    ts.apply(f_sub, aux, out_a)
    f_sub_cm = phase_to_cell_major(f_sub, pg.cdim)
    out_b = np.zeros_like(f_sub_cm)
    op.apply(f_sub_cm, aux, out_b)
    assert np.allclose(
        out_a, phase_to_mode_major(out_b, pg.cdim), rtol=1e-13, atol=1e-13
    )


def test_grouped_fallback_for_mixed_symbols():
    """A symbol varying on both config and velocity axes has no grouped
    sweep: the plan refuses it by name instead of falling back."""
    ts = TermSet(2, 2, {("mix",): [(0, 1, 2.0)], (): [(1, 0, 1.0)]})
    op = GroupedOperator(ts, cdim=1, vdim=1)
    rng = np.random.default_rng(0)
    f = rng.standard_normal((2, 3, 4))
    aux = {"mix": rng.standard_normal((3, 4))}
    out_b = np.zeros((3, 2, 4))
    with pytest.raises(PlanSignatureError, match="'mix'"):
        op.apply(phase_to_cell_major(f, 1), aux, out_b)
    assert op.num_plans == 0


def test_grouped_empty_termset():
    ts = TermSet(3, 3, {})
    op = GroupedOperator(ts, 1, 1)
    f = np.ones((2, 3, 2))  # cell-major (cfg, nb, vel)
    out = np.zeros_like(f)
    op.apply(f, {}, out)
    assert np.all(out == 0)
