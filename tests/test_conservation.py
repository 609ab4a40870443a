"""Conservation properties of the semi-discrete scheme (paper Sec. II).

* mass: exact for any flux choice (telescoping surface terms);
* energy: with central fluxes in velocity space and for Maxwell, the
  particle-energy rate equals the discrete J.E exactly, and the field-energy
  rate equals -J.E — total energy is conserved by the spatial scheme, so the
  only drift left is the O(dt^3) of SSP-RK3.
"""

import numpy as np
import pytest

from repro.diagnostics import EnergyHistory
from repro.grid import Grid
from repro.moments import integrate_conf_field
from repro.systems import FieldSpec, MaxwellBlock, Species, System


@pytest.fixture(scope="module")
def small_app():
    k = 0.5

    def f0(x, v):
        return (1 + 0.1 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [12]), f0)
    return System(
        conf_grid=Grid([0.0], [2 * np.pi / k], [6]),
        species=[elc],
        field=MaxwellBlock(FieldSpec(initial={"Ex": lambda x: -0.1 / k * np.sin(k * x)})),
        poly_order=2,
        cfl=0.5,
    )


def test_mass_conservation_machine_precision(small_app):
    app = small_app
    n0 = app.particle_number("elc")
    for _ in range(10):
        app.step()
    assert abs(app.particle_number("elc") - n0) / n0 < 1e-13


def test_rhs_level_energy_identity(small_app):
    """d/dt E_particles = int J.E = -d/dt E_fields, exactly (Eq. 9)."""
    app = small_app
    state = app.state()
    rhs = app.rhs(state)
    pg = app.phase_grids["elc"]
    m2_rate = app.moments["elc"].compute("M2", rhs["f/elc"])
    epart_rate = 0.5 * 1.0 * integrate_conf_field(m2_rate, pg)
    jac = float(np.prod([0.5 * dx for dx in app.conf_grid.dx]))
    efield_rate = float(
        np.sum(app.em[0:3] * rhs["em"][0:3]) + np.sum(app.em[3:6] * rhs["em"][3:6])
    ) * jac
    jdote = app.jdote()
    assert epart_rate == pytest.approx(jdote, rel=1e-12)
    assert efield_rate == pytest.approx(-jdote, rel=1e-12)
    assert abs(epart_rate + efield_rate) < 1e-12 * max(abs(jdote), 1.0)


def test_total_energy_drift_is_time_discretization_only():
    k = 0.5

    def f0(x, v):
        return (1 + 0.2 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [12]), f0)

    def make(cfl):
        app = System(
            Grid([0.0], [2 * np.pi / k], [6]),
            [elc],
            field=MaxwellBlock(FieldSpec(initial={"Ex": lambda x: -0.2 / k * np.sin(k * x)})),
            poly_order=2,
            cfl=cfl,
        )
        hist = EnergyHistory()
        app.run(0.5, diagnostics=hist)
        return hist.relative_drift()

    drift_coarse = make(0.4)
    drift_fine = make(0.1)
    assert drift_coarse < 1e-6
    # third-order stepper: dt/4 -> drift should shrink by ~64 (allow slack)
    assert drift_fine < drift_coarse / 8 or drift_fine < 1e-13


def test_upwind_maxwell_dissipates_not_gains():
    """With upwind Maxwell fluxes, total energy may only decrease."""
    k = 1.0

    def f0(x, v):
        return np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [8]), f0)
    app = System(
        Grid([0.0], [2 * np.pi], [6]),
        [elc],
        field=MaxwellBlock(
            FieldSpec(initial={"Ey": lambda x: 0.1 * np.sin(k * x)}, flux="upwind")
        ),
        poly_order=1,
        cfl=0.4,
    )
    hist = EnergyHistory()
    app.run(1.0, diagnostics=hist)
    tot = hist.total
    assert tot[-1] <= tot[0] * (1 + 1e-12)
    assert tot[-1] < tot[0]  # genuinely dissipative for underresolved waves


def test_penalty_velocity_flux_runs_stably():
    k = 0.5

    def f0(x, v):
        return (1 + 0.1 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [8]), f0)
    app = System(
        Grid([0.0], [2 * np.pi / k], [4]),
        [elc],
        field=MaxwellBlock(FieldSpec(initial={"Ex": lambda x: -0.1 / k * np.sin(k * x)})),
        poly_order=1,
        velocity_flux="penalty",
        cfl=0.4,
    )
    n0 = app.particle_number("elc")
    for _ in range(5):
        app.step()
    assert np.isfinite(app.f["elc"]).all()
    assert abs(app.particle_number("elc") - n0) / n0 < 1e-12
