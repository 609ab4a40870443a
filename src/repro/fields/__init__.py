"""Field equation solvers (Maxwell, Poisson)."""

from .maxwell import COMPONENT_NAMES, MaxwellSolver
from .poisson import NonNeutralError

__all__ = ["MaxwellSolver", "COMPONENT_NAMES", "NonNeutralError"]
