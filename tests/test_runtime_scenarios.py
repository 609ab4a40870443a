"""Scenario registry: listing, building, override routing, error paths."""

import pytest

from repro.runtime import SpecError, build, get_scenario, list_scenarios
from repro.runtime.scenarios import scenario

EXPECTED = {
    "landau_damping",
    "two_stream",
    "weibel_2x2v",
    "bump_on_tail",
    "collisional_relaxation",
    "free_streaming",
    "ion_acoustic",
    "driven_landau",
}


def test_registry_ships_canonical_scenarios():
    names = {sc.name for sc in list_scenarios()}
    assert EXPECTED <= names
    assert len(names) >= 8


def test_ion_acoustic_is_multispecies_with_real_mass_ratio():
    spec = build("ion_acoustic")
    assert [sp.name for sp in spec.species] == ["elc", "ion"]
    assert spec.species[1].mass == 1836.153
    assert spec.species[1].charge == 1.0
    # ion grid resolves the ion thermal spread, not the electron one
    assert spec.species[1].velocity_grid.upper[0] < spec.species[0].velocity_grid.upper[0]
    light = build("ion_acoustic", mass_ratio=25.0)
    assert light.species[1].mass == 25.0


def test_ion_acoustic_runs_and_conserves_particles():
    import numpy as np

    from repro.runtime import Driver
    from repro.runtime.driver import build_app

    spec = build("ion_acoustic", nx=8, nv=10, poly_order=1, steps=3, mass_ratio=25.0)
    fresh = build_app(spec)
    n0 = {sp.name: fresh.particle_number(sp.name) for sp in spec.species}
    drv = Driver(spec)
    result = drv.run()
    assert result["steps"] == 3
    for name, n in result["particle_number"].items():
        assert np.isfinite(n)
        assert n == pytest.approx(n0[name], rel=1e-10)  # particle conservation


def test_driven_landau_defaults_to_bohm_gross_frequency():
    import math

    spec = build("driven_landau")
    assert spec.external_field is not None
    assert spec.external_field.omega == pytest.approx(math.sqrt(1.75))
    assert "Ex" in spec.external_field.components
    spec = build("driven_landau", omega=2.0)
    assert spec.external_field.omega == 2.0


def test_driven_landau_drive_injects_field_energy():
    from repro.runtime.driver import build_app

    spec = build("driven_landau", nx=8, nv=12, poly_order=1, steps=20, ramp=1.0)
    app = build_app(spec)
    e0 = app.field_energy()
    for _ in range(spec.steps):
        app.step()
    assert app.field_energy() > max(e0 * 10.0, 1e-12)


def test_driven_landau_field_energy_excludes_the_drive():
    """The drive accelerates particles but is not field energy: the
    diagnostic squares the self-consistent ``Ex`` alone, even while the
    envelope is on."""
    import numpy as np

    from repro.runtime.driver import build_app

    spec = build("driven_landau", nx=8, nv=12, poly_order=1, steps=20, ramp=1.0)
    app = build_app(spec)
    for _ in range(spec.steps):
        app.step()
    block = app.field
    drive = block.external.envelope(app.time) * block._ext_coeffs[..., 0, :]
    assert np.max(np.abs(drive)) > 1e-3  # the envelope is on
    em = block.em_for_species(app, app.state())
    jac = 0.5 * app.conf_grid.dx[0]

    def energy(ex):
        return 0.5 * block.epsilon0 * float(np.sum(ex**2)) * jac

    self_consistent = energy(em[..., 0, :] - drive)
    assert app.field_energy() == pytest.approx(self_consistent, rel=1e-9)
    assert abs(energy(em[..., 0, :]) - self_consistent) > 0.1 * self_consistent


def test_every_scenario_builds_a_valid_roundtrippable_spec():
    from repro.runtime import SimulationSpec

    for sc in list_scenarios():
        spec = build(sc.name)
        assert SimulationSpec.from_json(spec.to_json()) == spec
        assert sc.description  # one-line docstring surfaced in `repro list`


def test_scenario_params_introspection():
    sc = get_scenario("two_stream")
    assert sc.params["drift"] == 2.0
    assert "nv" in sc.params


def test_build_routes_physics_params_and_spec_overrides():
    spec = build("two_stream", drift=1.25, nv=16, cfl=0.5, steps=3)
    assert spec.species[0].initial["drift"] == 1.25
    assert spec.species[0].velocity_grid.cells == (16,)
    assert spec.cfl == 0.5
    assert spec.steps == 3


def test_build_dotted_spec_override():
    spec = build("landau_damping", **{"species.elc.initial.vt": 0.8})
    assert spec.species[0].initial["vt"] == 0.8


def test_unknown_scenario_lists_known_names():
    with pytest.raises(SpecError) as err:
        get_scenario("tokamak")
    assert "two_stream" in str(err.value)


def test_unknown_override_key_errors():
    with pytest.raises(SpecError):
        build("two_stream", drfit=2.0)  # typo: neither a param nor a spec field


def test_scenario_param_validation_flows_through():
    with pytest.raises(SpecError) as err:
        build("collisional_relaxation", nu=-1.0)
    assert "collisions.nu" in err.value.field


def test_decorator_registers_and_validates(monkeypatch):
    from repro.runtime import scenarios as mod

    @scenario("_tmp_test_scenario")
    def _tmp(nx: int = 4):
        """Throwaway registration-path scenario."""
        return build("two_stream", nx=nx)

    try:
        sc = get_scenario("_tmp_test_scenario")
        assert sc.build(nx=6).conf_grid.cells == (6,)
        with pytest.raises(SpecError):
            sc.build(ny=6)
    finally:
        mod._REGISTRY.pop("_tmp_test_scenario", None)
