"""System registry: named system declarations built from simulation specs.

Every value of ``SimulationSpec.model`` is the name of a **registered
system** — a builder that assembles a :class:`~repro.systems.system.System`
from the spec's grids, species, and field declarations, plus an optional
spec-validation hook (model-specific constraints such as "the Poisson
closure needs 1-D configuration space") and a small ``example`` spec the
protocol-conformance suite runs against.

Registering a new equation set is a declaration, not a new app class::

    from repro.systems import System, NullFieldBlock, register_system

    @register_system("advection", description="field-free passive advection")
    def build_advection(spec):
        return System(..., field=NullFieldBlock(), ...)

The Vlasov–Maxwell and Vlasov–Poisson workloads themselves are registered
through exactly this mechanism — there is no privileged code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .blocks import ExternalField, FieldSpec, MaxwellBlock, NullFieldBlock, PoissonBlock, Species
from .system import System

__all__ = [
    "SystemKind",
    "register_system",
    "get_system_kind",
    "list_system_kinds",
    "known_models",
    "build_system",
    "build_species_blocks",
    "build_external_field",
]

_REGISTRY: Dict[str, "SystemKind"] = {}


def doc_summary(fn, description: Optional[str] = None) -> str:
    """The explicit ``description`` or the first docstring line of ``fn``.

    Raises a clear error when neither exists (used by this registry and
    the scenario registry — a registered name must have a catalogue line).
    """
    if description:
        return description
    doc = (fn.__doc__ or "").strip()
    if not doc:
        raise ValueError(
            f"{fn.__name__}: pass description=... or give the builder a docstring"
        )
    return doc.splitlines()[0]


@dataclass(frozen=True)
class SystemKind:
    """One registered system declaration."""

    name: str
    builder: Callable[..., System]
    description: str
    #: optional hook ``validate(spec, path)`` raising SpecError for
    #: model-specific spec constraints
    validate: Optional[Callable] = None
    #: small, fast spec builder the conformance suite runs against
    example: Optional[Callable] = None
    #: whether the ``process:N`` backend can shard this system
    shardable: bool = True
    #: whether the built model provides the ``jdote()`` diagnostic
    #: (``diagnostics.record_jdote`` is rejected generically otherwise)
    supports_jdote: bool = False

    def build(self, spec) -> System:
        return self.builder(spec)


def register_system(
    name: str,
    description: Optional[str] = None,
    validate: Optional[Callable] = None,
    example: Optional[Callable] = None,
    shardable: bool = True,
    supports_jdote: bool = False,
    override: bool = False,
):
    """Decorator registering a spec->System builder under ``name``.

    Duplicate names raise unless ``override=True`` — silently replacing a
    registered system (including the built-ins) would reroute every spec,
    checkpoint resume, and campaign point using that model name.
    """

    def deco(fn):
        if name in _REGISTRY and not override:
            raise ValueError(
                f"system {name!r} is already registered "
                f"(by {_REGISTRY[name].builder.__module__}); "
                "pass override=True to replace it"
            )
        _REGISTRY[name] = SystemKind(
            name=name,
            builder=fn,
            description=doc_summary(fn, description),
            validate=validate,
            example=example,
            shardable=shardable,
            supports_jdote=supports_jdote,
        )
        return fn

    return deco


def get_system_kind(name: str) -> SystemKind:
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown system {name!r} (registered: {', '.join(sorted(_REGISTRY))})"
        )
    return _REGISTRY[name]


def list_system_kinds() -> List[SystemKind]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def known_models() -> tuple:
    """The registered system names (valid ``SimulationSpec.model`` values)."""
    return tuple(sorted(_REGISTRY))


def build_system(spec) -> System:
    """Assemble the System described by ``spec`` (ICs projected, t=0)."""
    spec = spec.validate()
    return get_system_kind(spec.model).build(spec)


# --------------------------------------------------------------------- #
# shared spec->block assembly (public: system builders — registered here
# or in user code — compose their Systems from these)
# --------------------------------------------------------------------- #
def build_species_blocks(spec, conf_grid) -> List[Species]:
    """Compile a spec's species declarations (ICs + collision operators)
    into :class:`~repro.systems.blocks.Species` declarations on
    ``conf_grid`` (the same Grid instance the System is built on, so
    collision stacks share its identity)."""
    from ..grid.phase import PhaseGrid
    from ..runtime.profiles import build_phase_profile

    cdim = spec.conf_grid.ndim
    out = []
    for sp in spec.species:
        vel_grid = sp.velocity_grid.build()
        initial = build_phase_profile(
            sp.initial, cdim, vel_grid.ndim, f"species[{sp.name}].initial"
        )
        collisions = None
        if sp.collisions is not None:
            collisions = _build_collisions(
                sp.collisions, PhaseGrid(conf_grid, vel_grid), spec
            )
        out.append(
            Species(sp.name, sp.charge, sp.mass, vel_grid, initial, collisions)
        )
    return out


def _build_collisions(coll_spec, phase_grid, spec):
    if coll_spec.kind == "lbo":
        from ..collisions.lbo import LBOCollisions

        return LBOCollisions(phase_grid, spec.poly_order, spec.family, nu=coll_spec.nu)
    from ..collisions.bgk import BGKCollisions

    return BGKCollisions(phase_grid, spec.poly_order, spec.family, nu=coll_spec.nu)


def build_external_field(spec) -> Optional[ExternalField]:
    """Compile a spec's ``external_field`` declaration into an
    :class:`~repro.systems.blocks.ExternalField` (None when absent)."""
    if spec.external_field is None:
        return None
    from ..runtime.profiles import build_conf_profile

    ext = spec.external_field
    cdim = spec.conf_grid.ndim
    return ExternalField(
        profiles={
            comp: build_conf_profile(prof, cdim, f"external_field.components.{comp}")
            for comp, prof in ext.components.items()
        },
        omega=ext.omega,
        phase=ext.phase,
        ramp=ext.ramp,
    )


# --------------------------------------------------------------------- #
# registered systems
# --------------------------------------------------------------------- #
def _validate_maxwell(spec, path: str) -> None:
    from ..runtime.errors import SpecError

    if spec.epsilon0 != 1.0:
        raise SpecError(
            f"{path}.epsilon0",
            "the maxwell model reads field.epsilon0; set that instead",
        )
    if not spec.neutralize:
        raise SpecError(
            f"{path}.neutralize", "neutralize only applies to the poisson model"
        )


def _example_maxwell():
    from ..runtime.scenarios import build

    return build("weibel_2x2v", nx=4, nv=6, poly_order=1, steps=3)


@register_system(
    "maxwell",
    description="Vlasov–Maxwell: kinetic species + evolved EM field "
    "(current coupling)",
    validate=_validate_maxwell,
    example=_example_maxwell,
    supports_jdote=True,
)
def build_vlasov_maxwell(spec) -> System:
    """Vlasov–Maxwell system from a simulation spec."""
    from ..runtime.profiles import build_conf_profile

    cdim = spec.conf_grid.ndim
    field = None
    if spec.field is not None:
        fs = spec.field
        field = FieldSpec(
            initial={
                comp: build_conf_profile(prof, cdim, f"field.initial.{comp}")
                for comp, prof in fs.initial.items()
            },
            light_speed=fs.light_speed,
            epsilon0=fs.epsilon0,
            flux=fs.flux,
            chi_e=fs.chi_e,
            chi_m=fs.chi_m,
            evolve=fs.evolve,
        )
    conf_grid = spec.conf_grid.build()
    return System(
        conf_grid,
        build_species_blocks(spec, conf_grid),
        field=MaxwellBlock(field),
        poly_order=spec.poly_order,
        family=spec.family,
        cfl=spec.cfl,
        scheme=spec.scheme,
        stepper=spec.stepper,
        external=build_external_field(spec),
        name="maxwell",
    )


def _validate_poisson(spec, path: str) -> None:
    from ..runtime.errors import SpecError

    if spec.conf_grid.ndim != 1:
        raise SpecError(
            f"{path}.conf_grid.cells",
            "the poisson model supports 1-D configuration space only",
        )
    if spec.scheme != "modal":
        raise SpecError(
            f"{path}.scheme", "the poisson model only supports the modal scheme"
        )
    if spec.field is not None:
        raise SpecError(
            f"{path}.field",
            "the poisson model computes its field from charge density; drop 'field'",
        )


def _example_poisson():
    from ..runtime.scenarios import build

    return build("two_stream", nx=4, nv=8, poly_order=1, steps=3)


@register_system(
    "poisson",
    description="Vlasov–Poisson: kinetic species + electrostatic functional "
    "closure (1X)",
    validate=_validate_poisson,
    example=_example_poisson,
)
def build_vlasov_poisson(spec) -> System:
    """Vlasov–Poisson system from a simulation spec."""
    conf_grid = spec.conf_grid.build()
    return System(
        conf_grid,
        build_species_blocks(spec, conf_grid),
        field=PoissonBlock(epsilon0=spec.epsilon0, neutralize=spec.neutralize),
        poly_order=spec.poly_order,
        family=spec.family,
        cfl=spec.cfl,
        scheme="modal",
        stepper=spec.stepper,
        external=build_external_field(spec),
        name="poisson",
    )


def _validate_advection(spec, path: str) -> None:
    from ..runtime.errors import SpecError

    if spec.field is not None:
        raise SpecError(
            f"{path}.field", "the advection model has no field; drop 'field'"
        )
    if spec.epsilon0 != 1.0:
        raise SpecError(
            f"{path}.epsilon0", "epsilon0 does not apply to the advection model"
        )
    if not spec.neutralize:
        raise SpecError(
            f"{path}.neutralize", "neutralize only applies to the poisson model"
        )


def _example_advection():
    from ..runtime.scenarios import build

    return build("advection_1d", nx=6, nv=8, poly_order=1, steps=3)


@register_system(
    "advection",
    description="Field-free passive DG advection (streaming only, no closure)",
    validate=_validate_advection,
    example=_example_advection,
)
def build_advection(spec) -> System:
    """Field-free kinetic system: species stream without any field closure."""
    conf_grid = spec.conf_grid.build()
    return System(
        conf_grid,
        build_species_blocks(spec, conf_grid),
        field=NullFieldBlock(),
        poly_order=spec.poly_order,
        family=spec.family,
        cfl=spec.cfl,
        scheme=spec.scheme,
        stepper=spec.stepper,
        external=build_external_field(spec),
        name="advection",
    )
