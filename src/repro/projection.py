"""L2 projection of callables onto the modal DG representation.

Initial conditions enter the simulation through a per-cell Gauss–Legendre
projection.  (This is the one place quadrature legitimately appears: it
approximates integrals of *non-polynomial* user data, not of the scheme's
own nonlinear terms, so it has no bearing on the alias-free property of the
update itself.)

The quadrature sum runs where the plans' sweeps run.  In the ``cc`` tier it
is ``project_accumulate``, an entry point of the one compiled kernel source
(:data:`repro.cas.codegen.FUSED_SWEEP_C`, the shared object the plans of
the same cache directory load): the integrand is evaluated point by point
into a block of a few dozen points, and each block is added into the
output while its rows stay in cache, the configuration cells split over
threads (:func:`repro.cas.codegen.cell_threads`).  The integrand sees each
point's coordinates on the grid's axes, not its volume — each varies along
its own axis only — and its value is broadcast to the grid once, as it is
stored.  Otherwise (the ``numpy`` tier, no
compiler, a failed build) a per-point numpy loop adds the same products.
Both form each product ``(wts[q] * vander[k, q]) * value``, rounded, and
add it to an output that starts at ``+0.0``, point after point in the same
order; the kernel is built without multiply–add contraction, so the two
end in the same bits.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional

import numpy as np

from .basis.modal import ModalBasis, gauss_points_1d, tensor_gauss_points
from .cas.codegen import cell_threads
from .engine.compile import compiled_kernel
from .grid.cartesian import Grid
from .grid.phase import PhaseGrid

__all__ = ["project_on_grid", "project_conf_function", "project_phase_function"]

#: quadrature points per call of the compiled accumulate: the integrand
#: block it reads is this many grid-sized arrays, never all of them (and
#: never more than ``num_basis`` of them, so the block is no larger than the
#: output — the one output-sized temporary of the numpy loop)
_BLOCK = 25


def _compiled_accumulate():
    """``project_accumulate`` of the configured tier's compiled kernel, or
    None (see :func:`~repro.engine.compile.compiled_kernel`)."""
    kern = compiled_kernel()
    return None if kern is None else kern.project


def project_on_grid(
    fn: Callable[..., np.ndarray],
    grid: Grid,
    basis: ModalBasis,
    quad_order: Optional[int] = None,
    basis_axis: int = 0,
) -> np.ndarray:
    """Project ``fn(x0, x1, ...)`` onto every cell of a grid.

    Parameters
    ----------
    fn:
        Vectorized callable of ``grid.ndim`` coordinate arrays.  They are
        broadcastable, not grid-sized: coordinate ``d`` has the grid's
        length along axis ``d`` and length 1 along every other axis (an
        ``indexing="ij", sparse=True`` meshgrid), so the callable works in
        proportion to the axis lengths.  Its result is broadcast to the
        grid's cells, so any shape that broadcasts to them will do — a
        scalar, one axis' profile, or the full grid.
    grid, basis:
        Target discretization (``basis.ndim == grid.ndim``).
    quad_order:
        Gauss points per dimension (default ``p + 3``).
    basis_axis:
        Position of the coefficient axis in the output (0 = mode-major
        ``(Np, *cells)``; the cell-major wrappers below place it after the
        configuration cell axes).

    Returns
    -------
    Coefficient array with ``num_basis`` at ``basis_axis`` among the cell
    axes.
    """
    if basis.ndim != grid.ndim:
        raise ValueError("basis/grid dimensionality mismatch")
    nq = quad_order if quad_order is not None else basis.poly_order + 3
    pts, wts = tensor_gauss_points(nq, grid.ndim)
    # weights folded into the Vandermonde columns: coef[:, q] is the
    # product ``wts[q] * vander[:, q]`` both tiers multiply each value by
    coef = wts[None, :] * basis.eval_at(pts)  # (Np, Nq)
    centers = np.meshgrid(
        *(grid.centers(d) for d in range(grid.ndim)), indexing="ij", sparse=True
    )
    # coordinate d at a point is one of nq arrays, one per 1-D Gauss node;
    # the points run through them in product order (the order of ``pts``)
    nodes = gauss_points_1d(nq)[0]
    half_dx = [0.5 * dx for dx in grid.dx]
    axes = [[c + h * x for x in nodes] for c, h in zip(centers, half_dx)]
    values = (
        np.asarray(fn(*coords), dtype=float) for coords in itertools.product(*axes)
    )
    ba = int(basis_axis)
    cells = grid.cells
    npb = basis.num_basis
    out = np.zeros(cells[:ba] + (npb,) + cells[ba:])
    npts = pts.shape[0]
    accumulate = _compiled_accumulate()
    if accumulate is not None:
        ncfg, nvel = math.prod(cells[:ba]), math.prod(cells[ba:])
        threads = cell_threads(ncfg, ncfg * npb * nvel)
        size = min(_BLOCK, npb, npts)
        block = np.empty((size,) + cells)
        for q0 in range(0, npts, size):
            nb = min(size, npts - q0)
            for j in range(nb):
                block[j] = next(values)
            cols = np.ascontiguousarray(coef[:, q0 : q0 + nb], dtype=float)
            accumulate(
                nb, npb, ncfg, nvel,
                cols.ctypes.data, block.ctypes.data, out.ctypes.data, threads,
            )
        return out
    vshape = (1,) * ba + (-1,) + (1,) * (grid.ndim - ba)
    tmp = np.empty_like(out)
    for q in range(npts):
        vals = np.broadcast_to(next(values), cells)
        vals_b = vals.reshape(cells[:ba] + (1,) + cells[ba:])
        np.multiply(coef[:, q].reshape(vshape), vals_b, out=tmp)
        out += tmp
    return out


def project_conf_function(
    fn: Callable[..., np.ndarray],
    grid: Grid,
    basis: ModalBasis,
    quad_order: Optional[int] = None,
) -> np.ndarray:
    """Cell-major configuration-space projection ``(*cells, Npc)``."""
    return project_on_grid(fn, grid, basis, quad_order, basis_axis=grid.ndim)


def project_phase_function(
    fn: Callable[..., np.ndarray],
    phase_grid: PhaseGrid,
    basis: ModalBasis,
    quad_order: Optional[int] = None,
) -> np.ndarray:
    """Project a phase-space function ``fn(x..., v...)`` onto the phase
    basis, cell-major: ``(*cfg_cells, Np, *vel_cells)``."""
    full_grid = phase_grid.conf.extend(phase_grid.vel)
    return project_on_grid(
        fn, full_grid, basis, quad_order, basis_axis=phase_grid.cdim
    )
