"""Shared helpers for collision operators: generic advection application
along one velocity axis with interior faces and zero-flux boundaries.

Collision kernels run through the same plan-cached engine
(:class:`~repro.kernels.grouped.GroupedOperator`) as the Vlasov update, on
cell-major state.  The face states are formed by weighting a velocity-axis
slice into a pooled contiguous buffer — the one pass the flux arithmetic
needs anyway — so the per-call ``np.ascontiguousarray`` halo copies of the
mode-major era are gone.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..engine.pool import ScratchPool

__all__ = ["axis_slice", "slice_aux", "apply_advection"]


def axis_slice(ndim: int, axis: int, sl: slice) -> Tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def slice_aux(aux: Dict[str, object], cell_axis: int, sl: slice) -> Dict[str, object]:
    """Restrict aux symbol arrays to a face subset along one cell axis.

    ``cell_axis`` indexes the ``(*cfg, *vel)`` cell axes (aux arrays carry
    no basis axis).  Symbols that vary along the sliced axis (e.g. the
    cell-center velocity ``w{d}`` when the flux itself depends on ``v_d``,
    as in the LBO drag term) must be sliced consistently with the state
    arrays; broadcastable size-1 axes and scalars pass through unchanged.
    """
    out: Dict[str, object] = {}
    for name, val in aux.items():
        if isinstance(val, np.ndarray) and val.ndim > cell_axis and val.shape[cell_axis] > 1:
            out[name] = val[axis_slice(val.ndim, cell_axis, sl)]
        else:
            out[name] = val
    return out


def apply_advection(
    f: np.ndarray,
    aux: Dict[str, object],
    out: np.ndarray,
    vol,
    surf: Dict[Tuple[str, str], object],
    face_aux: Tuple[Dict[str, object], Dict[str, object]],
    cdim: int,
    vel_dim: int,
    pool: ScratchPool,
    weights: Tuple[float, float] = (0.5, 0.5),
) -> None:
    """Accumulate a DG advection RHS along velocity dimension ``vel_dim`` of
    cell-major state ``(*cfg, Np, *vel)``.

    ``vol``/``surf`` are plan-cached :class:`GroupedOperator`s;
    ``face_aux`` is ``aux`` restricted (:func:`slice_aux`) to the lower and
    to the upper cell of every interior face along that axis — built once by
    the caller, so the surface plans see stable value objects.  ``weights =
    (wL, wR)`` select the numerical flux: ``(0.5, 0.5)`` is central,
    ``(1, 0)``/``(0, 1)`` are the one-sided fluxes used by the LDG diffusion
    passes.  Domain boundary faces carry zero flux (interior faces only),
    which is the conservation-preserving velocity-space boundary condition.
    """
    vol.apply(f, aux, out)
    axis = cdim + 1 + vel_dim          # state array axis of this velocity dim
    n = f.shape[axis]
    if n < 2:
        return
    w_l, w_r = weights
    ndim = f.ndim
    sl_lo = axis_slice(ndim, axis, slice(0, n - 1))
    sl_hi = axis_slice(ndim, axis, slice(1, n))
    aux_lo, aux_hi = face_aux
    face_shape = f[sl_lo].shape
    # weighting the face trace writes it contiguous cell-major; the old
    # mode-major path needed an extra ascontiguousarray copy here
    f_face = pool.get("collops.face", face_shape)
    inc_left = pool.get("collops.incl", face_shape, zero=True)
    inc_right = pool.get("collops.incr", face_shape, zero=True)
    if w_l:
        np.multiply(f[sl_lo], w_l, out=f_face)
        surf[("L", "L")].apply(f_face, aux_lo, inc_left)
        surf[("R", "L")].apply(f_face, aux_lo, inc_right)
    if w_r:
        np.multiply(f[sl_hi], w_r, out=f_face)
        surf[("L", "R")].apply(f_face, aux_hi, inc_left)
        surf[("R", "R")].apply(f_face, aux_hi, inc_right)
    out[sl_lo] += inc_left
    out[sl_hi] += inc_right
