"""Diagnostics: growth fits, slices, energy history, flops."""

import numpy as np
import pytest

from repro.basis.modal import ModalBasis
from repro.diagnostics import EnergyHistory, evaluate_points, fit_exponential_growth, plane_slice
from repro.grid import Grid, PhaseGrid
from repro.kernels import compare_costs, get_vlasov_kernels
from repro.kernels.flops import alias_free_quadrature_points_1d
from repro.projection import project_phase_function


def test_growth_fit_recovers_rate():
    t = np.linspace(0, 10, 200)
    amp = 3.0 * np.exp(0.37 * t)
    fit = fit_exponential_growth(t, amp)
    assert fit.rate == pytest.approx(0.37, rel=1e-6)
    assert np.exp(fit.intercept) == pytest.approx(3.0, rel=1e-6)
    assert fit.residual < 1e-10


def test_growth_fit_window_and_errors():
    t = np.linspace(0, 10, 50)
    amp = np.exp(t) * (t > 5)  # zeros outside window are masked
    fit = fit_exponential_growth(t, amp, t_min=6.0, t_max=9.0)
    assert fit.rate == pytest.approx(1.0, rel=1e-6)
    with pytest.raises(ValueError):
        fit_exponential_growth(t[:2], amp[:2])


def test_evaluate_points_matches_function():
    pg = PhaseGrid(Grid([0.0], [1.0], [8]), Grid([-2.0], [2.0], [8]))
    basis = ModalBasis(2, 2, "serendipity")

    def func(x, v):
        return np.sin(2 * np.pi * x) * np.exp(-v ** 2)

    f = project_phase_function(func, pg, basis)
    pts = np.array([[0.3, 0.5], [0.77, -1.2], [0.01, 1.9]])
    vals = evaluate_points(f, pg, basis, pts)
    expected = func(pts[:, 0], pts[:, 1])
    assert np.allclose(vals, expected, atol=5e-3)


def test_plane_slice_structure():
    pg = PhaseGrid(Grid([0.0], [1.0], [4]), Grid([-2.0], [2.0], [4]))
    basis = ModalBasis(2, 1, "serendipity")
    f = project_phase_function(lambda x, v: 1.0 + 0 * x, pg, basis)
    sl = plane_slice(f, pg, basis, axes=(0, 1), fixed={}, resolution=16)
    assert sl["values"].shape == (16, 16)
    assert np.allclose(sl["values"], 1.0, atol=1e-10)


def test_energy_history_arrays():
    """EnergyHistory reads any Model via energies() — no app class needed."""
    h = EnergyHistory()
    class FakeModel:
        time = 0.0
        def energies(self):
            return {"field": 1.0, "particle/elc": 0.0, "total": 1.0}
    h(FakeModel())
    assert h.total[0] == 1.0
    assert list(h.particle_energy) == ["elc"]
    assert h.relative_drift() == 0.0


def test_cost_comparison_grows_with_dimension():
    """The modal/nodal multiplication ratio improves with dimensionality —
    the core of the paper's Sec. III argument (N_q grows exponentially with
    dimension while the modal nonzeros do not)."""
    d2 = compare_costs(get_vlasov_kernels(1, 1, 2, "serendipity"))
    d3 = compare_costs(get_vlasov_kernels(1, 2, 2, "serendipity"))
    d4 = compare_costs(get_vlasov_kernels(1, 3, 2, "serendipity"))
    assert d2.speedup < d3.speedup < d4.speedup
    assert d4.speedup > 1.5
    # volume kernels alone (the Fig. 1 comparison) show a bigger gap
    assert d4.nodal["volume_total"] > 3 * d4.modal["volume_total"]


def test_alias_free_quadrature_points():
    assert alias_free_quadrature_points_1d(1) == 3
    assert alias_free_quadrature_points_1d(2) == 4
    assert alias_free_quadrature_points_1d(3) == 6
