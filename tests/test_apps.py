"""App-level integration: multi-species runs, checkpoint/restart, schemes."""

import numpy as np
import pytest

from repro.diagnostics import EnergyHistory
from repro.grid import Grid
from repro.io import load_checkpoint, restore_app, save_app, save_checkpoint
from repro.systems import FieldSpec, MaxwellBlock, PoissonBlock, Species, System


def _two_species(k=0.5, nv=8, nx=4, p=1):
    def felc(x, v):
        return (1 + 0.05 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    def fion(x, v):
        # heavy ions: narrow Maxwellian (mass ratio 25 for test speed)
        vt = 0.2
        return np.exp(-v ** 2 / (2 * vt ** 2)) / np.sqrt(2 * np.pi * vt ** 2)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [nv]), felc)
    ion = Species("ion", +1.0, 25.0, Grid([-1.5], [1.5], [nv]), fion)
    return System(
        Grid([0.0], [2 * np.pi / k], [nx]),
        [elc, ion],
        field=MaxwellBlock(FieldSpec(initial={"Ex": lambda x: -0.05 / k * np.sin(k * x)})),
        poly_order=p,
        cfl=0.4,
    )


def test_two_species_energy_and_mass():
    app = _two_species()
    hist = EnergyHistory()
    n_elc = app.particle_number("elc")
    n_ion = app.particle_number("ion")
    app.run(0.5, diagnostics=hist)
    assert app.step_count > 0
    assert abs(app.particle_number("elc") - n_elc) / n_elc < 1e-12
    assert abs(app.particle_number("ion") - n_ion) / n_ion < 1e-12
    assert hist.relative_drift() < 1e-5


def test_modal_and_quadrature_apps_agree():
    """The Table I comparison is meaningful because both schemes integrate
    the same discrete system: one step must agree to near machine precision."""
    k = 0.5

    def f0(x, v):
        return (1 + 0.1 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    def make(scheme):
        elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [8]), f0)
        return System(
            Grid([0.0], [2 * np.pi / k], [4]),
            [elc],
            field=MaxwellBlock(FieldSpec(initial={"Ex": lambda x: -0.1 / k * np.sin(k * x)})),
            poly_order=2,
            scheme=scheme,
            cfl=0.5,
        )

    a = make("modal")
    b = make("quadrature")
    dt = min(a.suggested_dt(), b.suggested_dt())
    for app in (a, b):
        app.step(dt)
        app.step(dt)
    scale = np.max(np.abs(b.f["elc"]))
    assert np.max(np.abs(a.f["elc"] - b.f["elc"])) / scale < 1e-12
    assert np.allclose(a.em, b.em, atol=1e-12)


def test_static_field_mode():
    def f0(x, v):
        return np.exp(-v ** 2 / 2)

    elc = Species("elc", -1.0, 1.0, Grid([-4.0], [4.0], [8]), f0)
    app = System(
        Grid([0.0], [1.0], [4]),
        [elc],
        field=MaxwellBlock(
            FieldSpec(initial={"Ex": lambda x: 0.3 * np.ones_like(x)}, evolve=False)
        ),
        poly_order=1,
    )
    em0 = app.em.copy()
    app.step()
    assert np.array_equal(app.em, em0)  # field frozen
    assert app.step_count == 1


def test_checkpoint_restart_bitwise(tmp_path):
    app = _two_species()
    for _ in range(3):
        app.step()
    path = tmp_path / "chk.npz"
    save_app(path, app)
    f_ref = {k: v.copy() for k, v in app.f.items()}
    em_ref = app.em.copy()
    t_ref = app.time
    # continue 2 steps, then restore and redo them
    dts = [app.step() for _ in range(2)]
    f_after = {k: v.copy() for k, v in app.f.items()}
    meta = restore_app(path, app)
    assert meta["species"] == ["elc", "ion"]
    assert app.time == t_ref
    for k in f_ref:
        assert np.array_equal(app.f[k], f_ref[k])
    assert np.array_equal(app.em, em_ref)
    for dt in dts:
        app.step(dt)
    for k in f_after:
        assert np.array_equal(app.f[k], f_after[k])


def test_checkpoint_file_roundtrip(tmp_path):
    state = {"f/elc": np.arange(12.0).reshape(3, 4), "em": np.ones((2, 2))}
    meta = {"time": 1.5, "note": "test"}
    path = tmp_path / "c.npz"
    save_checkpoint(path, state, meta)
    state2, meta2 = load_checkpoint(path)
    assert meta2 == {**meta, "layout": "cell-major"}
    assert set(state2) == set(state)
    for k in state:
        assert np.array_equal(state[k], state2[k])


def test_app_validation_errors():
    def f0(x, v):
        return np.exp(-v ** 2)

    sp = Species("e", -1.0, 1.0, Grid([-2.0], [2.0], [4]), f0)
    static = FieldSpec(evolve=False)
    with pytest.raises(ValueError):
        System(Grid([0.0], [1.0], [4]), [], field=MaxwellBlock(static), poly_order=1)
    with pytest.raises(ValueError):
        System(Grid([0.0], [1.0], [4]), [sp, sp], field=MaxwellBlock(static), poly_order=1)
    with pytest.raises(ValueError):
        System(
            Grid([0.0], [1.0], [4]), [sp], field=MaxwellBlock(static), poly_order=1,
            scheme="pic",
        )


def test_vlasov_poisson_requires_1d():
    def f0(x, y, v):
        return np.exp(-v ** 2)

    sp = Species("e", -1.0, 1.0, Grid([-2.0], [2.0], [4]), f0)
    with pytest.raises(ValueError):
        System(Grid([0.0, 0.0], [1.0, 1.0], [4, 4]), [sp], field=PoissonBlock())


def test_vlasov_poisson_neutralized_run():
    k = 0.5

    def f0(x, v):
        return (1 + 0.01 * np.cos(k * x)) * np.exp(-v ** 2 / 2) / np.sqrt(2 * np.pi)

    elc = Species("elc", -1.0, 1.0, Grid([-6.0], [6.0], [12]), f0)
    app = System(
        Grid([0.0], [2 * np.pi / k], [6]), [elc], field=PoissonBlock(), poly_order=1, cfl=0.5
    )
    n0 = app.particle_number("elc")
    app.run(0.5)
    assert abs(app.particle_number("elc") - n0) / n0 < 1e-12
    assert app.field_energy() > 0
