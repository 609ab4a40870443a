"""Declarative runtime: specs, scenario registry, driver, campaigns, CLI.

The runtime layer plays the role of Gkeyll's App/input-file system on top of
the generated-kernel solver stack: simulations are described by JSON-round-
trippable :class:`SimulationSpec` objects, canonical setups live in a
:mod:`~repro.runtime.scenarios` registry, a :class:`Driver` compiles specs
into live apps with scheduled diagnostics and checkpoint/resume, and
:mod:`~repro.runtime.campaign` turns a parameter scan into a batch submit
to the :mod:`repro.serve` job store (imported only when a campaign runs).
"""

from .campaign import (
    CampaignSpec,
    expand_points,
    load_manifest,
    run_campaign,
)
from .driver import Driver, build_app
from .errors import SpecError
from .scenarios import build, get_scenario, list_scenarios, scenario
from .spec import (
    CollisionsSpec,
    DiagnosticsSpec,
    ExternalFieldSpec,
    FieldInitSpec,
    GridSpec,
    SimulationSpec,
    SpeciesSpec,
)

__all__ = [
    "SpecError",
    "GridSpec",
    "SpeciesSpec",
    "CollisionsSpec",
    "FieldInitSpec",
    "ExternalFieldSpec",
    "DiagnosticsSpec",
    "SimulationSpec",
    "scenario",
    "get_scenario",
    "list_scenarios",
    "build",
    "Driver",
    "build_app",
    "CampaignSpec",
    "expand_points",
    "run_campaign",
    "load_manifest",
]
