"""Simulation diagnostics: energies, growth rates, slices."""

from .energy import EnergyHistory
from .growth import GrowthFit, fit_exponential_growth
from .slices import evaluate_points, plane_slice

__all__ = [
    "EnergyHistory",
    "GrowthFit",
    "fit_exponential_growth",
    "evaluate_points",
    "plane_slice",
]
