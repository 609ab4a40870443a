"""repro.systems — the composable Model/System API.

The Gkeyll-style "App infrastructure" seam: a simulation is a *declared
composition* of species blocks, a field closure, and couplings — not a
bespoke class per equation set.  The package defines

* :class:`~repro.systems.model.Model` — the protocol (the exact surface
  the Driver, the sharded executor, the steppers, checkpoints, and the
  diagnostics recorders are allowed to touch), with
  :func:`~repro.systems.model.protocol_signature` pinning it;
* :class:`~repro.systems.system.System` — the single Model implementation,
  assembled from :class:`KineticSpecies` + a field block
  (:class:`MaxwellBlock` / :class:`PoissonBlock` / :class:`NullFieldBlock`)
  + couplings;
* the registry (:func:`register_system`) mapping ``SimulationSpec.model``
  names to System builders — Vlasov–Maxwell, Vlasov–Poisson, and the
  field-free advection system are all registered through it with no
  privileged code path.
"""

from .blocks import (
    ChargeCoupling,
    CurrentCoupling,
    ExternalField,
    FieldBlock,
    FieldSpec,
    KineticSpecies,
    MaxwellBlock,
    NullFieldBlock,
    PoissonBlock,
    Species,
)
from .model import Model, cfl_dt, protocol_signature, run_loop
from .registry import (
    SystemKind,
    build_external_field,
    build_species_blocks,
    build_system,
    get_system_kind,
    known_models,
    list_system_kinds,
    register_system,
)
from .system import System

__all__ = [
    "Model",
    "System",
    "Species",
    "FieldSpec",
    "ExternalField",
    "KineticSpecies",
    "FieldBlock",
    "MaxwellBlock",
    "PoissonBlock",
    "NullFieldBlock",
    "CurrentCoupling",
    "ChargeCoupling",
    "SystemKind",
    "register_system",
    "get_system_kind",
    "list_system_kinds",
    "known_models",
    "build_system",
    "build_species_blocks",
    "build_external_field",
    "run_loop",
    "cfl_dt",
    "protocol_signature",
]
