"""repro — alias-free, matrix-free, quadrature-free modal DG algorithms for
(plasma) kinetic equations.

A from-scratch Python reproduction of Hakim & Juno, *"Alias-free,
matrix-free, and quadrature-free discontinuous Galerkin algorithms for
(plasma) kinetic equations"*, SC 2020 (the Gkeyll Vlasov–Maxwell solver).

Quickstart::

    import numpy as np
    from repro import Grid, Species, FieldSpec
    from repro.systems import System, MaxwellBlock

    k = 0.5
    elc = Species("elc", charge=-1.0, mass=1.0,
                  velocity_grid=Grid([-6.0], [6.0], [16]),
                  initial=lambda x, v: (1 + 0.01*np.cos(k*x))
                      * np.exp(-v**2/2) / np.sqrt(2*np.pi))
    system = System(
        conf_grid=Grid([0.0], [2*np.pi/k], [16]),
        species=[elc],
        field=MaxwellBlock(FieldSpec(
            initial={"Ex": lambda x: -0.01/k*np.sin(k*x)})),
        poly_order=2)
    system.run(10.0)

See README.md ("System API", "Library use") for the composition API and
benchmarks/README.md for the scripts behind every paper table and figure.
"""

from .basis.modal import ModalBasis
from .basis.multiindex import FAMILIES, num_basis
from .collisions.bgk import BGKCollisions
from .collisions.lbo import LBOCollisions
from .diagnostics.energy import EnergyHistory
from .diagnostics.growth import fit_exponential_growth
from .fields.maxwell import MaxwellSolver
from .fields.poisson import Poisson1D
from .grid.cartesian import Grid
from .grid.phase import PhaseGrid
from .kernels.registry import get_vlasov_kernels
from .moments.calc import MomentCalculator, integrate_conf_field
from .projection import project_on_grid, project_phase_function
from .runtime import CampaignSpec, Driver, SimulationSpec
from .systems import (
    ExternalField,
    FieldSpec,
    MaxwellBlock,
    Model,
    NullFieldBlock,
    PoissonBlock,
    Species,
    System,
    build_system,
    register_system,
)
from .vlasov.modal_solver import VlasovModalSolver
from .vlasov.quadrature_solver import VlasovQuadratureSolver

__version__ = "1.0.0"

__all__ = [
    "Grid",
    "PhaseGrid",
    "ModalBasis",
    "FAMILIES",
    "num_basis",
    "VlasovModalSolver",
    "VlasovQuadratureSolver",
    "MaxwellSolver",
    "Poisson1D",
    "MomentCalculator",
    "integrate_conf_field",
    "LBOCollisions",
    "BGKCollisions",
    "Species",
    "FieldSpec",
    "ExternalField",
    "Model",
    "System",
    "MaxwellBlock",
    "PoissonBlock",
    "NullFieldBlock",
    "register_system",
    "build_system",
    "EnergyHistory",
    "fit_exponential_growth",
    "get_vlasov_kernels",
    "project_on_grid",
    "project_phase_function",
    "SimulationSpec",
    "Driver",
    "CampaignSpec",
    "__version__",
]
