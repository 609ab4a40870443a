"""Mode-major <-> cell-major copies: the test oracles that compare the
cell-major plans with the mode-major reference evaluator ``TermSet.apply``.
Nothing in ``src/`` holds mode-major state."""

import numpy as np


def phase_to_cell_major(arr: np.ndarray, cdim: int) -> np.ndarray:
    """Copy mode-major ``(Np, *cfg, *vel)`` to cell-major ``(*cfg, Np, *vel)``."""
    return np.ascontiguousarray(np.moveaxis(arr, 0, cdim))


def phase_to_mode_major(arr: np.ndarray, cdim: int) -> np.ndarray:
    """Copy cell-major ``(*cfg, Np, *vel)`` to mode-major ``(Np, *cfg, *vel)``."""
    return np.ascontiguousarray(np.moveaxis(arr, cdim, 0))
