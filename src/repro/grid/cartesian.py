"""Structured Cartesian grids.

The paper's solver operates on block-structured Cartesian grids in phase
space; this module provides the configuration-space and velocity-space
factors.  Grids are uniform per dimension (cell centers
``lower + (i + 1/2) dx``), which is what makes the generated kernels cell
independent up to the ``(w, dx)`` runtime symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = ["Grid"]


@dataclass(frozen=True)
class Grid:
    """A uniform Cartesian grid.

    Parameters
    ----------
    lower, upper:
        Domain bounds per dimension.
    cells:
        Number of cells per dimension.
    """

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    cells: Tuple[int, ...]

    def __init__(self, lower: Sequence[float], upper: Sequence[float], cells: Sequence[int]):
        lower = tuple(float(x) for x in lower)
        upper = tuple(float(x) for x in upper)
        cells = tuple(int(n) for n in cells)
        if not (len(lower) == len(upper) == len(cells)):
            raise ValueError("lower/upper/cells must have equal lengths")
        if any(u <= l for l, u in zip(lower, upper)):
            raise ValueError("upper must exceed lower in every dimension")
        if any(n < 1 for n in cells):
            raise ValueError("need at least one cell per dimension")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "cells", cells)

    @property
    def ndim(self) -> int:
        return len(self.cells)

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells))

    @property
    def dx(self) -> Tuple[float, ...]:
        return tuple(
            (u - l) / n for l, u, n in zip(self.lower, self.upper, self.cells)
        )

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    # A grid may be one block of a larger periodic grid
    # (:class:`repro.dist.BlockGrid` overrides these three); a whole grid
    # is the trivial block of itself.
    @property
    def ghost(self) -> Tuple[int, ...]:
        """Ghost layers per axis that arrays handed to this grid's solvers
        carry on each side — the neighbouring blocks' cells.  None on a
        whole grid: its solvers wrap periodically instead."""
        return (0,) * self.ndim

    @property
    def parent(self) -> "Grid":
        """The whole grid this one is a block of."""
        return self

    def restrict(self, arr: np.ndarray) -> np.ndarray:
        """This grid's cells of an array shaped on :attr:`parent`'s
        (leading axes)."""
        return arr

    def centers(self, dim: int) -> np.ndarray:
        """Cell-center coordinates along one dimension, shape ``(cells[dim],)``."""
        dx = self.dx[dim]
        return self.lower[dim] + dx * (np.arange(self.cells[dim]) + 0.5)

    def edges(self, dim: int) -> np.ndarray:
        dx = self.dx[dim]
        return self.lower[dim] + dx * np.arange(self.cells[dim] + 1)

    def cell_center(self, idx: Sequence[int]) -> Tuple[float, ...]:
        return tuple(
            self.lower[d] + self.dx[d] * (int(i) + 0.5) for d, i in enumerate(idx)
        )

    def extend(self, other: "Grid") -> "Grid":
        """Cartesian product grid (e.g. configuration x velocity)."""
        return Grid(
            self.lower + other.lower, self.upper + other.upper, self.cells + other.cells
        )

    def refine(self, factor: int | Sequence[int]) -> "Grid":
        """Uniformly refined copy (used by convergence tests)."""
        if isinstance(factor, int):
            factors: Iterable[int] = [factor] * self.ndim
        else:
            factors = factor
        return Grid(self.lower, self.upper, [n * f for n, f in zip(self.cells, factors)])

    def meshgrid_centers(self) -> Tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each of shape ``cells``."""
        axes = [self.centers(d) for d in range(self.ndim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))
