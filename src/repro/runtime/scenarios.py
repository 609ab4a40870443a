"""Scenario registry: canonical kinetic setups as declarative specs.

Each scenario is a function returning a :class:`~repro.runtime.spec.SimulationSpec`
with physically meaningful keyword parameters (wavenumber, drift speed,
resolution ...).  The :func:`scenario` decorator registers it by name so the
CLI, the campaign runner, examples, and benchmarks all build their apps from
one catalogue instead of hand-wiring ~80 lines apiece.

Overrides passed to :func:`build` are split automatically: keys matching the
scenario function's signature parameterize the physics; everything else is
applied as a dotted-path spec override (``cfl=0.5``, ``steps=10``,
``species.elc.initial.vt=0.4`` ...).
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .errors import SpecError
from .spec import (
    CollisionsSpec,
    DiagnosticsSpec,
    ExternalFieldSpec,
    FieldInitSpec,
    GridSpec,
    SimulationSpec,
    SpeciesSpec,
)

__all__ = ["scenario", "get_scenario", "list_scenarios", "build", "Scenario"]

_REGISTRY: Dict[str, "Scenario"] = {}


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: builder function plus introspection metadata."""

    name: str
    func: Callable[..., SimulationSpec]
    description: str

    @property
    def params(self) -> Dict[str, object]:
        """Overridable physics parameters with their defaults."""
        return {
            name: p.default
            for name, p in inspect.signature(self.func).parameters.items()
        }

    def build(self, **kwargs) -> SimulationSpec:
        params = set(inspect.signature(self.func).parameters)
        bad = [k for k in kwargs if k not in params]
        if bad:
            raise SpecError(
                f"scenario[{self.name}].{bad[0]}",
                f"unknown parameter (known: {', '.join(sorted(params))})",
            )
        return self.func(**kwargs).validate()


def scenario(name: str, description: Optional[str] = None):
    """Register a spec-builder function under ``name``."""

    def deco(fn):
        from ..systems.registry import doc_summary

        _REGISTRY[name] = Scenario(
            name=name, func=fn, description=doc_summary(fn, description)
        )
        return fn

    return deco


def get_scenario(name: str) -> Scenario:
    if name not in _REGISTRY:
        raise SpecError(
            "scenario",
            f"unknown scenario {name!r} (known: {', '.join(sorted(_REGISTRY))})",
        )
    return _REGISTRY[name]


def list_scenarios() -> List[Scenario]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def build(name: str, **overrides) -> SimulationSpec:
    """Build a scenario spec, routing overrides to physics params or spec paths."""
    sc = get_scenario(name)
    params = set(inspect.signature(sc.func).parameters)
    fn_kwargs = {k: v for k, v in overrides.items() if k in params}
    spec_overrides = {k: v for k, v in overrides.items() if k not in params}
    spec = sc.build(**fn_kwargs)
    if spec_overrides:
        spec = spec.with_overrides(spec_overrides)
    return spec


# --------------------------------------------------------------------- #
# canonical scenarios
# --------------------------------------------------------------------- #
@scenario("landau_damping")
def landau_damping(
    k: float = 0.5,
    amp: float = 1e-3,
    vt: float = 1.0,
    nx: int = 16,
    nv: int = 24,
    vmax: float = 6.0,
    poly_order: int = 2,
    t_end: float = 20.0,
) -> SimulationSpec:
    """Collisionless damping of a Langmuir wave (Vlasov–Maxwell, 1X1V)."""
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="landau_damping",
        model="maxwell",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "maxwellian",
                    "vt": vt,
                    "perturbation": {"amp": amp, "k": k},
                },
            ),
        ),
        field=FieldInitSpec(initial={"Ex": {"kind": "sine", "amp": -amp / k, "k": k}}),
        poly_order=poly_order,
        cfl=0.6,
        t_end=t_end,
    )


@scenario("two_stream")
def two_stream(
    k: float = 0.5,
    drift: float = 2.0,
    vt: float = 0.5,
    amp: float = 1e-4,
    nx: int = 24,
    nv: int = 48,
    vmax: float = 8.0,
    poly_order: int = 2,
    t_end: float = 40.0,
) -> SimulationSpec:
    """Electrostatic two-stream instability (Vlasov–Poisson, 1X1V)."""
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="two_stream",
        model="poisson",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "counter_beams",
                    "drift": drift,
                    "vt": vt,
                    "perturbation": {"amp": amp, "k": k},
                },
            ),
        ),
        poly_order=poly_order,
        cfl=0.6,
        t_end=t_end,
    )


@scenario("weibel_2x2v")
def weibel_2x2v(
    drift: float = 0.6,
    vt: float = 0.2,
    seed_amp: float = 1e-5,
    box: float = 4.0,
    nx: int = 6,
    nv: int = 14,
    poly_order: int = 2,
    t_end: float = 30.0,
) -> SimulationSpec:
    """Counter-streaming beam filamentation/Weibel instability (2X2V)."""
    ky = 2.0 * math.pi / box
    vmax = drift + 4.0 * vt
    return SimulationSpec(
        name="weibel_2x2v",
        model="maxwell",
        conf_grid=GridSpec((0.0, 0.0), (box, box), (nx, nx)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax, -vmax), (vmax, vmax), (nv, nv)),
                initial={"kind": "counter_beams", "drift": drift, "vt": vt, "axis": 0},
            ),
        ),
        field=FieldInitSpec(
            initial={"Bz": {"kind": "cosine", "amp": seed_amp, "k": ky, "axis": 1}}
        ),
        poly_order=poly_order,
        cfl=0.8,
        t_end=t_end,
    )


@scenario("bump_on_tail")
def bump_on_tail(
    k: float = 0.3,
    amp: float = 1e-3,
    bump_amp: float = 0.1,
    bump_drift: float = 3.0,
    bump_width: float = 0.4,
    nx: int = 16,
    nv: int = 48,
    vmax: float = 8.0,
    poly_order: int = 2,
    t_end: float = 30.0,
) -> SimulationSpec:
    """Bump-on-tail beam–plasma instability (Vlasov–Poisson, 1X1V)."""
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="bump_on_tail",
        model="poisson",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "bump_on_tail",
                    "bump_amp": bump_amp,
                    "bump_drift": bump_drift,
                    "bump_width": bump_width,
                    "perturbation": {"amp": amp, "k": k},
                },
            ),
        ),
        poly_order=poly_order,
        cfl=0.6,
        t_end=t_end,
    )


@scenario("collisional_relaxation")
def collisional_relaxation(
    nu: float = 0.8,
    bump_amp: float = 0.2,
    bump_drift: float = 3.0,
    nx: int = 2,
    nv: int = 32,
    vmax: float = 8.0,
    poly_order: int = 2,
    t_end: float = 6.0,
) -> SimulationSpec:
    """Bump-on-tail relaxation to a Maxwellian under LBO collisions."""
    return SimulationSpec(
        name="collisional_relaxation",
        model="poisson",
        conf_grid=GridSpec((0.0,), (1.0,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "bump_on_tail",
                    "bump_amp": bump_amp,
                    "bump_drift": bump_drift,
                },
                collisions=CollisionsSpec(nu=nu),
            ),
        ),
        poly_order=poly_order,
        cfl=0.4,
        t_end=t_end,
    )


@scenario("ion_acoustic")
def ion_acoustic(
    k: float = 0.5,
    amp: float = 1e-2,
    mass_ratio: float = 1836.153,
    temp_ratio: float = 10.0,
    nx: int = 16,
    nv: int = 32,
    poly_order: int = 2,
    t_end: float = 20.0,
) -> SimulationSpec:
    """Ion-acoustic wave: kinetic electrons + ions at a real mass ratio (1X1V).

    Both species carry the same density perturbation, launching the
    sound-like mode at :math:`c_s = \\sqrt{T_e/m_i}`; ``temp_ratio`` is
    :math:`T_e/T_i` (Landau damping of the mode is weak when large).  The
    ion velocity grid resolves the ion thermal spread plus a few sound
    speeds; the electron grid is the usual :math:`\\pm 6 v_{th,e}`.
    """
    length = 2.0 * math.pi / k
    vte = 1.0
    vti = math.sqrt(1.0 / (temp_ratio * mass_ratio))
    cs = math.sqrt(1.0 / mass_ratio)
    vmax_i = 6.0 * vti + 4.0 * cs
    perturbation = {"amp": amp, "k": k}
    return SimulationSpec(
        name="ion_acoustic",
        model="poisson",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-6.0 * vte,), (6.0 * vte,), (nv,)),
                initial={"kind": "maxwellian", "vt": vte, "perturbation": dict(perturbation)},
            ),
            SpeciesSpec(
                name="ion",
                charge=1.0,
                mass=mass_ratio,
                velocity_grid=GridSpec((-vmax_i,), (vmax_i,), (nv,)),
                initial={"kind": "maxwellian", "vt": vti, "perturbation": dict(perturbation)},
            ),
        ),
        poly_order=poly_order,
        cfl=0.6,
        t_end=t_end,
    )


@scenario("driven_landau")
def driven_landau(
    k: float = 0.5,
    amp: float = 1e-2,
    omega: Optional[float] = None,
    ramp: float = 5.0,
    vt: float = 1.0,
    nx: int = 16,
    nv: int = 24,
    vmax: float = 6.0,
    poly_order: int = 2,
    t_end: float = 20.0,
) -> SimulationSpec:
    """Externally driven Langmuir oscillations: time-dependent E-field drive.

    A prescribed ``Ex = amp sin(kx) cos(omega t)`` drive (linearly ramped
    over ``ramp`` time units) pumps an initially unperturbed Maxwellian;
    ``omega`` defaults to the Bohm–Gross frequency
    :math:`\\sqrt{1 + 3 k^2 v_t^2}` for resonant excitation against the
    Landau-damped response.
    """
    if omega is None:
        omega = math.sqrt(1.0 + 3.0 * (k * vt) ** 2)
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="driven_landau",
        model="poisson",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={"kind": "maxwellian", "vt": vt},
            ),
        ),
        external_field=ExternalFieldSpec(
            components={"Ex": {"kind": "sine", "amp": amp, "k": k}},
            omega=omega,
            ramp=ramp,
        ),
        poly_order=poly_order,
        cfl=0.6,
        t_end=t_end,
    )


@scenario("advection_1d")
def advection_1d(
    k: float = 1.0,
    amp: float = 0.3,
    vt: float = 1.0,
    nx: int = 16,
    nv: int = 16,
    vmax: float = 5.0,
    poly_order: int = 2,
    t_end: float = 5.0,
) -> SimulationSpec:
    """Passive DG advection: field-free streaming through the systems API.

    The simplest registered system — one neutral tracer species, no field
    closure at all (``model="advection"`` maps to a
    :class:`~repro.systems.blocks.NullFieldBlock`), so the state carries
    distribution functions only.  Exercises the pure streaming operator:
    a perturbed Maxwellian phase-mixes while the density pattern advects.
    """
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="advection_1d",
        model="advection",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="tracer",
                charge=0.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "maxwellian",
                    "vt": vt,
                    "perturbation": {"amp": amp, "k": k},
                },
            ),
        ),
        poly_order=poly_order,
        cfl=0.8,
        t_end=t_end,
    )


@scenario("multispecies_shock")
def multispecies_shock(
    drift: float = 1.0,
    mass_ratio: float = 25.0,
    vt_ion: float = 0.08,
    nu: float = 5.0,
    amp: float = 0.4,
    k: float = 0.5,
    nx: int = 24,
    nv: int = 24,
    poly_order: int = 2,
    t_end: float = 4.0,
) -> SimulationSpec:
    """Colliding plasma slabs: counter-streaming collisional ion beams +
    kinetic electrons (Vlasov–Poisson, 1X1V).

    Two ion populations drift through each other at several ion-acoustic
    Mach numbers (:math:`c_s = \\sqrt{T_e/m_i}`), with counter-phased
    density modulations so left- and right-dominated regions collide at
    their interfaces; LBO collisions thermalize the interpenetration into
    shock-like heating fronts.  A three-species registered-system workload
    with zero bespoke code: electrons + two ion beams, collisions, and the
    electrostatic closure are all declarative blocks.
    """
    length = 2.0 * math.pi / k
    cs = math.sqrt(1.0 / mass_ratio)
    vmax_i = drift + 6.0 * vt_ion + 2.0 * cs
    coll = CollisionsSpec(kind="lbo", nu=nu)
    return SimulationSpec(
        name="multispecies_shock",
        model="poisson",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="elc",
                charge=-1.0,
                mass=1.0,
                velocity_grid=GridSpec((-6.0,), (6.0,), (nv,)),
                initial={"kind": "maxwellian", "vt": 1.0},
            ),
            SpeciesSpec(
                name="ion_l",
                charge=1.0,
                mass=mass_ratio,
                velocity_grid=GridSpec((-vmax_i,), (vmax_i,), (nv,)),
                initial={
                    "kind": "maxwellian",
                    "n0": 0.5,
                    "vt": vt_ion,
                    "drift": drift,
                    "perturbation": {"amp": amp, "k": k},
                },
                collisions=coll,
            ),
            SpeciesSpec(
                name="ion_r",
                charge=1.0,
                mass=mass_ratio,
                velocity_grid=GridSpec((-vmax_i,), (vmax_i,), (nv,)),
                initial={
                    "kind": "maxwellian",
                    "n0": 0.5,
                    "vt": vt_ion,
                    "drift": -drift,
                    "perturbation": {"amp": amp, "k": k, "phase": math.pi},
                },
                collisions=coll,
            ),
        ),
        poly_order=poly_order,
        cfl=0.5,
        t_end=t_end,
    )


@scenario("free_streaming")
def free_streaming(
    k: float = 1.0,
    amp: float = 0.5,
    vt: float = 1.0,
    nx: int = 8,
    nv: int = 16,
    vmax: float = 6.0,
    poly_order: int = 2,
    t_end: float = 2.0,
) -> SimulationSpec:
    """Free streaming of a perturbed Maxwellian (alias-free exactness workload)."""
    length = 2.0 * math.pi / k
    return SimulationSpec(
        name="free_streaming",
        model="maxwell",
        conf_grid=GridSpec((0.0,), (length,), (nx,)),
        species=(
            SpeciesSpec(
                name="neutral",
                charge=0.0,
                mass=1.0,
                velocity_grid=GridSpec((-vmax,), (vmax,), (nv,)),
                initial={
                    "kind": "maxwellian",
                    "vt": vt,
                    "perturbation": {"amp": amp, "k": k},
                },
            ),
        ),
        field=FieldInitSpec(evolve=False),
        poly_order=poly_order,
        cfl=0.8,
        t_end=t_end,
        diagnostics=DiagnosticsSpec(energy_interval=1),
    )
