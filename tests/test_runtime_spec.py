"""Spec layer: dict/JSON round-trip, validation errors, overrides."""

import dataclasses
import json
from typing import Optional

import pytest

from repro.runtime import (
    DiagnosticsSpec,
    ExternalFieldSpec,
    FieldInitSpec,
    GridSpec,
    SimulationSpec,
    SpecError,
    SpeciesSpec,
    list_scenarios,
)
from repro.runtime import spec as spec_module


def _minimal_spec(**kwargs):
    base = dict(
        name="t",
        model="poisson",
        conf_grid=GridSpec((0.0,), (1.0,), (4,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-4.0,), (4.0,), (8,)),
            ),
        ),
    )
    base.update(kwargs)
    return SimulationSpec(**base)


def test_dict_roundtrip_identity():
    spec = _minimal_spec().validate()
    again = SimulationSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.to_dict() == spec.to_dict()
    # every registered scenario too, its keys in the dataclass field order
    for scenario in list_scenarios():
        spec = scenario.build()
        assert SimulationSpec.from_dict(spec.to_dict()) == spec
        assert list(spec.to_dict()) == [f.name for f in dataclasses.fields(spec)]


def test_spec_fields_are_declared_once():
    """The wire format lives in the field declarations: no spec dataclass
    writes its own ``to_dict`` / ``from_dict``, every field names its wire
    kind, and a new field is that one declaration and nothing else."""
    classes = [
        obj for obj in vars(spec_module).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    ]
    assert {SimulationSpec, SpeciesSpec, GridSpec} <= set(classes)
    for cls in classes:
        assert not {"to_dict", "from_dict"} & set(vars(cls)), cls.__name__
        for f in dataclasses.fields(cls):
            assert f.metadata.get("wire") in spec_module._READ, f"{cls.__name__}.{f.name}"

    @dataclasses.dataclass(frozen=True)
    class Labelled(GridSpec):
        label: Optional[str] = spec_module.wire("optional string", None)

    data = {"lower": [0.0], "upper": [1.0], "cells": [4]}
    assert Labelled.from_dict(data, "g").to_dict() == {**data, "label": None}
    assert Labelled.from_dict({**data, "label": "a"}, "g").label == "a"
    with pytest.raises(SpecError) as err:
        Labelled.from_dict({**data, "label": 3}, "g")
    assert err.value.field == "g.label"
    with pytest.raises(SpecError) as err:
        Labelled.from_dict({**data, "lable": "a"}, "g")
    assert "lower, upper, cells, label" in str(err.value)


def test_json_roundtrip_identity():
    spec = _minimal_spec(
        model="maxwell",
        field=FieldInitSpec(initial={"Ex": {"kind": "sine", "amp": 0.1, "k": 1.0}}),
        diagnostics=DiagnosticsSpec(energy_interval=2, checkpoint_interval=5),
    ).validate()
    text = spec.to_json()
    json.loads(text)  # valid JSON
    assert SimulationSpec.from_json(text) == spec


@pytest.mark.parametrize(
    "mutate, field",
    [
        (dict(model="euler"), "spec.model"),
        (dict(cfl=-0.5), "spec.cfl"),
        (dict(poly_order=0), "spec.poly_order"),
        (dict(t_end=0.0), "spec.t_end"),
        (dict(steps=0), "spec.steps"),
        (dict(scheme="nodal"), "spec.scheme"),
        (dict(stepper="rk4"), "spec.stepper"),
        (dict(family="hermite"), "spec.family"),
        (dict(species=()), "spec.species"),
    ],
)
def test_validation_errors_name_the_field(mutate, field):
    with pytest.raises(SpecError) as err:
        _minimal_spec(**mutate).validate()
    assert err.value.field == field


def test_species_error_paths_carry_index():
    spec = _minimal_spec()
    data = spec.to_dict()
    data["species"][0]["mass"] = -1.0
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict(data)
    assert err.value.field == "spec.species[0].mass"


def test_unknown_profile_kind_names_the_field():
    data = _minimal_spec().to_dict()
    data["species"][0]["initial"] = {"kind": "waterbag"}
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict(data)
    assert err.value.field == "spec.species[0].initial.kind"
    data["species"][0]["initial"] = {"kind": [1]}  # not even a name
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict(data)
    assert err.value.field == "spec.species[0].initial.kind"


def test_unknown_profile_parameter_names_the_field():
    data = _minimal_spec().to_dict()
    data["species"][0]["initial"] = {"kind": "maxwellian", "vthermal": 2.0}
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict(data)
    assert err.value.field == "spec.species[0].initial.vthermal"


def test_unknown_top_level_field_rejected():
    data = _minimal_spec().to_dict()
    data["colour"] = "red"
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict(data)
    assert err.value.field == "spec.colour"


def test_poisson_model_constraints():
    with pytest.raises(SpecError) as err:
        _minimal_spec(scheme="quadrature").validate()
    assert err.value.field == "spec.scheme"
    with pytest.raises(SpecError) as err:
        _minimal_spec(field=FieldInitSpec()).validate()
    assert err.value.field == "spec.field"


def test_duplicate_species_names_rejected():
    sp = _minimal_spec().species[0]
    with pytest.raises(SpecError) as err:
        _minimal_spec(species=(sp, sp)).validate()
    assert err.value.field == "spec.species"


def test_overrides_dotted_paths():
    spec = _minimal_spec().validate()
    out = spec.with_overrides(
        {
            "cfl": 0.5,
            "steps": 7,
            "species.elc.charge": -2.0,
            "species.0.initial.vt": 0.25,
            "conf_grid.cells": [8],
        }
    )
    assert out.cfl == 0.5
    assert out.steps == 7
    assert out.species[0].charge == -2.0
    assert out.species[0].initial["vt"] == 0.25
    assert out.conf_grid.cells == (8,)
    # original untouched (frozen dataclasses)
    assert spec.cfl != 0.5


def test_overrides_unknown_path_errors():
    spec = _minimal_spec().validate()
    with pytest.raises(SpecError) as err:
        spec.with_overrides({"cflx": 0.5})
    assert "cflx" in str(err.value)
    with pytest.raises(SpecError):
        spec.with_overrides({"species.ion.charge": 1.0})  # no such species


def test_override_can_create_collisions():
    spec = _minimal_spec().validate()
    out = spec.with_overrides({"species.elc.collisions.kind": "lbo"})
    assert out.species[0].collisions.kind == "lbo"
    # the removed BGK kind is named as such
    with pytest.raises(SpecError, match="BGK collision operator was removed.*'lbo'") as err:
        spec.with_overrides({"species.elc.collisions.kind": "bgk"})
    assert err.value.field == "spec.species[0].collisions.kind"
    # setting a non-kind parameter first auto-creates with the default kind
    out = spec.with_overrides({"species.elc.collisions.nu": 0.5})
    assert out.species[0].collisions.kind == "lbo"
    assert out.species[0].collisions.nu == 0.5


def test_maxwell_model_rejects_poisson_only_knobs():
    base = _minimal_spec(
        model="maxwell",
        field=FieldInitSpec(),
    )
    with pytest.raises(SpecError) as err:
        base.validate().with_overrides({"epsilon0": 4.0})
    assert err.value.field == "spec.epsilon0"
    with pytest.raises(SpecError) as err:
        base.validate().with_overrides({"neutralize": False})
    assert err.value.field == "spec.neutralize"


def test_external_field_roundtrip_and_validation():
    ext = ExternalFieldSpec(
        components={"Ex": {"kind": "sine", "amp": 0.01, "k": 0.5}},
        omega=1.3,
        ramp=5.0,
    )
    spec = _minimal_spec(external_field=ext).validate()
    again = SimulationSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.external_field.omega == 1.3
    assert SimulationSpec.from_json(spec.to_json()) == spec

    with pytest.raises(SpecError) as err:
        _minimal_spec(
            external_field=ExternalFieldSpec(components={})
        ).validate()
    assert "components" in err.value.field
    with pytest.raises(SpecError) as err:
        _minimal_spec(
            external_field=ExternalFieldSpec(
                components={"phi": {"kind": "sine"}}
            )
        ).validate()
    assert "phi" in err.value.field
    with pytest.raises(SpecError):
        _minimal_spec(
            external_field=ExternalFieldSpec(
                components={"Ex": {"kind": "sine"}}, ramp=-1.0
            )
        ).validate()
    with pytest.raises(SpecError):
        ExternalFieldSpec.from_dict({"omgea": 1.0}, "x")  # typo'd field
    with pytest.raises(SpecError) as err:
        spec.with_overrides({"external_field.components.Ex": 3})  # not a profile
    assert err.value.field == "spec.external_field.components.Ex"


def test_field_initial_entry_must_be_a_profile_object():
    spec = _minimal_spec(model="maxwell", field=FieldInitSpec()).validate()
    with pytest.raises(SpecError) as err:
        spec.with_overrides({"field.initial": {"Bz": 3}})
    assert err.value.field == "spec.field.initial.Bz"


def test_process_backend_validates_in_spec():
    spec = _minimal_spec(backend="process:2").validate()
    assert spec.backend == "process:2"
    with pytest.raises(SpecError) as err:
        _minimal_spec(backend="process:nope").validate()
    assert err.value.field == "spec.backend"


def test_plan_cache_roundtrip_and_validation():
    spec = _minimal_spec(plan_cache="off").validate()
    again = SimulationSpec.from_dict(spec.to_dict())
    assert again == spec
    assert again.plan_cache == "off"
    # defaults survive the dict round-trip too
    base = _minimal_spec().validate()
    assert base.plan_cache == "auto"
    assert SimulationSpec.from_dict(base.to_dict()) == base

    with pytest.raises(SpecError) as err:
        _minimal_spec(plan_cache=7).validate()
    assert err.value.field == "spec.plan_cache"


def test_legacy_plan_mode_key_is_accepted_and_dropped():
    """Stored specs (checkpoint metadata, serve job.json, HTTP bodies) from
    before the executors were merged carry ``plan_mode``; both of its values
    ran bit-identically, so they load as the same spec."""
    base = _minimal_spec().validate()
    assert "plan_mode" not in base.to_dict()
    for legacy in ("fused", "interpreted"):
        loaded = SimulationSpec.from_dict({**base.to_dict(), "plan_mode": legacy})
        assert loaded == base
    with pytest.raises(SpecError) as err:
        SimulationSpec.from_dict({**base.to_dict(), "plan_mode": "jit"})
    assert err.value.field == "spec.plan_mode"
    # the knob itself is gone: it is not a settable field any more
    with pytest.raises(SpecError):
        base.with_overrides({"plan_mode": "interpreted"})


def test_plan_cache_override_dotted_path():
    spec = _minimal_spec().validate()
    out = spec.with_overrides({"plan_cache": "off"})
    assert out.plan_cache == "off"
    assert spec.plan_cache == "auto"  # frozen original untouched


def test_grid_spec_validation():
    with pytest.raises(SpecError) as err:
        GridSpec((0.0,), (-1.0,), (4,)).validate("g")
    assert err.value.field.startswith("g.upper")
    with pytest.raises(SpecError):
        GridSpec.from_dict({"lower": [0.0], "upper": [1.0]}, "g")  # missing cells
    with pytest.raises(SpecError):
        GridSpec.from_dict({"lower": [0.0], "upper": [1.0], "cells": [2.5]}, "g")
