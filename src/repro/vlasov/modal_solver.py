"""The paper's algorithm: alias-free, matrix-free, quadrature-free modal DG
update of the Vlasov equation.

The right-hand side of the semi-discrete system (paper Eq. 12)

.. math::

   \\frac{df_l}{dt} = \\sum_{mn} C_{lmn} \\alpha_n f_m
                    + \\sum_m U_{lm} \\hat F_m

is evaluated by applying the CAS-generated sparse kernels
(:mod:`repro.kernels`) to every phase-space cell at once.  No quadrature is
performed at runtime, no mass/stiffness matrix exists (the orthonormal basis
makes the mass matrix the identity), and every integral entering the update
was computed exactly at generation time — eliminating the aliasing errors
that destabilize nodal kinetic schemes.

State is **cell-major** (:class:`~repro.engine.layout.StateLayout`):
distribution coefficients are ``(*cfg_cells, Np, *vel_cells)`` and the EM
state is ``(*cfg_cells, 8, Npc)``, so every per-cell sweep in the
precompiled-plan engine (:mod:`repro.engine`) reads and writes the state
directly — no transpose or ``ascontiguousarray`` pass anywhere in the
steady-state RHS.

The surface terms :math:`U_{lm} \\hat F_m` are evaluated in the **face-mode
space**.  In the orthonormal basis a mode restricted to the face
:math:`\\xi_d = \\pm 1` is a number times one of the :math:`N_f` modes of
the same family in the other :math:`d - 1` variables (20 of 48 for 2X2V
p=2 serendipity), and the Vlasov flux along :math:`d` does not depend on
:math:`\\xi_d`, so every surface kernel factors exactly as
:math:`\\sigma_t (T^t)^T \\hat H T^s`
(:func:`~repro.kernels.generator.generate_face_termsets`).  One RHS is:
volume operator → **trace** (one sparse pass over ``f`` giving both face
traces of every cell for all directions, ``(*cfg, 2 d Nf, *vel)``) → per
direction, the face state (upwinded and periodic for streaming; central on
interior faces, zero on the velocity-domain boundary for acceleration) and
its ``Nf x Nf`` **flux** operator, whose result overwrites the trace slots
→ **lift** (one sparse pass adding every direction's face fluxes to the
cell).  The operators are ordinary termsets run by the plan engine.

The solver also runs on one block of a larger grid (a ``process:N`` shard):
the grid then declares ghost layers along its decomposed axes
(``Grid.ghost``), ``rhs`` takes ``f`` with the neighbours' cells in them,
and the streaming face state reads a ghost cell's trace where the periodic
form rolls — the same operators on the same per-cell data, so the block's
result is the whole grid's restricted to it, bit for bit.

Numerical fluxes follow Juno et al. (2018) / Gkeyll:

* configuration-space faces: upwind on the sign of the cell-center velocity
  (exact when velocity cells do not straddle ``v = 0``; cells that do
  straddle fall back to a central flux);
* velocity-space faces: central flux, which preserves the discrete
  :math:`J \\cdot E` energy-exchange identity (total particle+field energy
  conservation with a central-flux Maxwell solver); an optional local
  Lax-type penalty is available for extra robustness;
* velocity-space domain boundaries: zero flux.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..engine.layout import StateLayout
from ..engine.pool import ScratchPool
from ..grid.phase import PhaseGrid
from ..kernels.generator import FACE_SIGN
from ..kernels.grouped import GroupedOperator
from ..kernels.registry import get_vlasov_kernels
from ..kernels.termset import merge_termsets, stack_termsets

__all__ = ["VlasovModalSolver"]


class VlasovModalSolver:
    """Matrix-free modal DG discretization of the Vlasov equation for one
    species.

    Parameters
    ----------
    phase_grid:
        The configuration x velocity phase-space grid.
    poly_order, family:
        Basis selection (``tensor`` / ``serendipity`` / ``maximal-order``).
    charge, mass:
        Species charge and mass (normalized units).
    velocity_flux:
        ``"central"`` (energy conserving, the paper's choice) or
        ``"penalty"`` (adds a local Lax-type jump penalty).
    """

    def __init__(
        self,
        phase_grid: PhaseGrid,
        poly_order: int,
        family: str = "serendipity",
        charge: float = -1.0,
        mass: float = 1.0,
        velocity_flux: str = "central",
    ):
        if velocity_flux not in ("central", "penalty"):
            raise ValueError("velocity_flux must be 'central' or 'penalty'")
        self.grid = phase_grid
        self.poly_order = int(poly_order)
        self.family = family
        self.charge = float(charge)
        self.mass = float(mass)
        self.velocity_flux = velocity_flux
        self.pool = ScratchPool()
        self.kernels = get_vlasov_kernels(
            phase_grid.cdim, phase_grid.vdim, poly_order, family
        )
        self.num_basis = self.kernels.num_basis
        self.num_conf_basis = self.kernels.cfg_basis.num_basis
        self.layout = StateLayout.for_grid(phase_grid, self.num_basis)
        self._base_aux = phase_grid.base_aux()
        self._base_aux["qm"] = self.charge / self.mass
        # working aux dict refreshed in place by field_aux (geometry symbols
        # plus views of the EM coefficients); the views are rebuilt only when
        # a different em array is passed — under in-place stepping the same
        # array arrives every stage, so they persist
        self._aux = dict(self._base_aux)
        self._aux_src: Optional[np.ndarray] = None
        # Streaming upwind weights per configuration direction: the sign of
        # the paired velocity coordinate at the cell center; 0.5 for cells
        # straddling v = 0 (central fallback).  ``_upwind_pos`` keeps the
        # aux-style cell-axis shape; ``_upwind_pos_b`` carries the inserted
        # basis axis for broadcasting against cell-major state.
        self._upwind_pos = []
        self._upwind_pos_b = []
        self._upwind_neg_b = []
        for j in range(phase_grid.cdim):
            w = phase_grid.velocity_center_array(j)
            pos = np.where(w > 0, 1.0, np.where(w < 0, 0.0, 0.5))
            self._upwind_pos.append(pos)
            self._upwind_pos_b.append(self.layout.bcast(pos))
            self._upwind_neg_b.append(self.layout.bcast(1.0 - pos))
        # Every termset runs through a plan-cached GroupedOperator sharing
        # one scratch pool, every kernel on its exact sparsity (field-coupled
        # ones with per-configuration-cell entries).  All volume kernels
        # are merged into a single operator (one pass over f).
        cdim, vdim = phase_grid.cdim, phase_grid.vdim

        def _op(ts):
            return GroupedOperator(ts, cdim, vdim, pool=self.pool)

        kern = self.kernels
        self._vol_op = _op(merge_termsets(kern.vol_stream + kern.vol_accel))
        # Surface terms in the face-mode space.  Phase direction q owns the
        # trace-buffer slots [2 q Nf, 2 (q+1) Nf): first the cell's trace on
        # its upper face (the face's "L" state), then on its lower face; the
        # lift reads each cell's upper-/lower-face flux from the same slots.
        faces = kern.face_stream + kern.face_accel
        sides = [(fk, side) for fk in faces for side in ("L", "R")]
        self.num_face_modes = nf = faces[0].flux.nout
        self._trace_op = _op(stack_termsets([fk.trace[side] for fk, side in sides]))
        self._lift_op = _op(
            stack_termsets(
                [fk.trace[side].scaled(FACE_SIGN[side]) for fk, side in sides]
            ).transposed()
        )
        self._stream_flux_ops = [_op(fk.flux) for fk in kern.face_stream]
        # the central-flux 1/2 is folded into the generated coefficients
        self._accel_flux_ops = [_op(fk.flux.scaled(0.5)) for fk in kern.face_accel]
        shape = self.layout.shape
        ndim = len(shape)
        self._slots = [
            tuple(
                _axis_slice(ndim, cdim, slice((2 * q + k) * nf, (2 * q + k + 1) * nf))
                for k in (0, 1)
            )
            for q in range(len(faces))
        ]
        self.trace_shape = shape[:cdim] + (2 * len(faces) * nf,) + shape[cdim + 1 :]
        # On one block of a larger grid, ``rhs`` is handed ``f`` with the
        # neighbours' cells in ghost layers along the decomposed axes
        # (``grid.conf.ghost``; none on a whole grid, where every
        # configuration axis wraps periodically instead).
        self._ghost = ghost = phase_grid.conf.ghost
        self._in_shape = tuple(n + 2 * g for n, g in zip(shape, ghost)) + shape[cdim:]
        self._interior = (
            tuple(slice(g, g + n) for n, g in zip(shape, ghost)) if any(ghost) else None
        )

    # ------------------------------------------------------------------ #
    # aux symbol assembly
    # ------------------------------------------------------------------ #
    def field_aux(self, em: np.ndarray) -> Dict[str, object]:
        """Broadcastable field-coefficient symbols from the EM state.

        Parameters
        ----------
        em:
            EM modal coefficients, cell-major ``(*cfg_cells, >=6, Npc)``
            ordered ``(Ex, Ey, Ez, Bx, By, Bz, ...)`` on the component axis.

        The returned dict is owned by the solver and refreshed in place on
        every call; the field entries are views into ``em``.
        """
        aux = self._aux
        if em is self._aux_src:
            return aux
        g = self.grid
        npc = self.num_conf_basis
        if (
            em.ndim != g.cdim + 2
            or em.shape[: g.cdim] != g.conf.cells
            or em.shape[-2] < 6
            or em.shape[-1] != npc
        ):
            raise ValueError(
                f"EM state must be cell-major {g.conf.cells + ('>=6', npc)}; "
                f"got {em.shape}"
            )
        for comp in range(3):
            for k in range(npc):
                aux[f"E{comp}_{k}"] = g.conf_coefficient_array(em[..., comp, k])
                aux[f"B{comp}_{k}"] = g.conf_coefficient_array(em[..., 3 + comp, k])
        self._aux_src = em
        return aux

    # ------------------------------------------------------------------ #
    # RHS evaluation
    # ------------------------------------------------------------------ #
    def rhs(
        self,
        f: np.ndarray,
        em: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate ``df/dt`` for the collisionless Vlasov equation.

        Parameters
        ----------
        f:
            Distribution coefficients, cell-major
            ``(*cfg_cells, Np, *vel_cells)``, carrying the configuration
            grid's ghost layers (none on a whole grid).
        em:
            EM coefficients, cell-major ``(*cfg_cells, >=6, Npc)``.
        out:
            Optional output array, ``(*cfg_cells, Np, *vel_cells)`` without
            ghosts (contents discarded and replaced).
        """
        if f.shape != self._in_shape:
            raise ValueError(
                f"f has shape {f.shape}, expected cell-major {self._in_shape}"
            )
        if out is None:
            out = np.empty(self.layout.shape)
        aux = self.field_aux(em)
        g = self.pool.get("solver.trace", self.trace_shape)
        if self._interior is None:
            f_own, g_all, g_own = f, g, g
        else:
            # the traces of every cell handed in, ghosts included; the
            # fluxes go to the ghost-free buffer ``g`` the lift reads
            f_own = self._own_cells(f)
            g_all = self.pool.get(
                "solver.trace_ghosted",
                self._in_shape[: self.grid.cdim] + self.trace_shape[self.grid.cdim :],
            )
            g_own = g_all[self._interior]
        # the volume operator owns the first write into out (no zero pass)
        self._vol_op.apply(f_own, aux, out, accumulate=False)
        self._trace_op.apply(f, aux, g_all, accumulate=False)
        for j in range(self.grid.cdim):
            if self._ghost[j]:
                self._ghost_streaming_flux(j, g_all, g, aux)
            else:
                # no ghosts along this axis: the grid spans it, and the
                # periodic neighbour is a roll away (ghost-padding a whole
                # grid instead would cost a state-sized copy per call)
                self._streaming_flux(j, g_own, g, aux)
        for j in range(self.grid.vdim):
            self._acceleration_flux(j, g_own, g, aux)
        self._lift_op.apply(g, aux, out)
        return out

    def _own_cells(self, f: np.ndarray) -> np.ndarray:
        """The grid's own cells of a ghosted ``f``, contiguous: a view when
        only the leading axis carries ghosts, else staged into a pooled
        buffer."""
        view = f[self._interior]
        if view.flags.c_contiguous:
            return view
        own = self.pool.get("solver.own", self.layout.shape)
        np.copyto(own, view)
        return own

    def _face_buffers(self, n: int, axis: int):
        """Two pooled contiguous ``Nf``-wide buffers with ``n`` cells along
        ``axis``: the face state and its flux."""
        shape = list(self.layout.shape)
        shape[self.grid.cdim] = self.num_face_modes
        shape[axis] = n
        return (
            self.pool.get("solver.gface", tuple(shape)),
            self.pool.get("solver.fhat", tuple(shape)),
        )

    def _streaming_flux(self, j, g, glift, aux) -> None:
        """Upwinded flux through the periodic faces normal to configuration
        direction ``j``: reads the traces in ``g`` (any strides), writes each
        cell's upper- and lower-face flux into the same slots of ``glift``
        (``g`` itself on a whole grid)."""
        up, dn = self._slots[j]
        gface, fhat = self._face_buffers(self.layout.shape[j], j)
        # face i+1/2: upper-face trace of cell i, lower-face trace of cell i+1
        np.multiply(g[up], self._upwind_pos_b[j], out=gface)
        _roll_mul(g[dn], -1, j, self._upwind_neg_b[j], out=fhat)
        gface += fhat
        self._stream_flux_ops[j].apply(gface, aux, fhat, accumulate=False)
        glift[up] = fhat
        _roll_copy(fhat, 1, j, glift[dn])

    def _ghost_streaming_flux(self, j, g_all, glift, aux) -> None:
        """:meth:`_streaming_flux` along an axis with ghost layers: the
        ``n + 1`` faces touching the grid's own cells, the outer two taking
        one trace from a ghost cell where the periodic form rolls."""
        n = self.layout.shape[j]
        up, dn = self._slots[j]

        def window(start):  # ghosted cells start .. start + n along axis j
            sl = list(self._interior)
            sl[j] = slice(start, start + n + 1)
            return g_all[tuple(sl)]

        gface, fhat = self._face_buffers(n + 1, j)
        # entry i is the lower face of own cell i (ghosted cell i + 1)
        np.multiply(window(0)[up], self._upwind_pos_b[j], out=gface)
        np.multiply(window(1)[dn], self._upwind_neg_b[j], out=fhat)
        gface += fhat
        self._stream_flux_ops[j].apply(gface, aux, fhat, accumulate=False)
        glift[up] = fhat[_axis_slice(fhat.ndim, j, slice(1, n + 1))]
        glift[dn] = fhat[_axis_slice(fhat.ndim, j, slice(0, n))]

    def _acceleration_flux(self, j, g, glift, aux) -> None:
        """Central flux through the interior faces normal to velocity
        direction ``j`` (plus the optional penalty); the two domain-boundary
        faces carry zero flux.  Same ``g``/``glift`` contract as
        :meth:`_streaming_flux`."""
        cdim = self.grid.cdim
        axis = cdim + 1 + j
        n = self.layout.shape[axis]
        ndim = g.ndim
        up, dn = self._slots[cdim + j]
        lo = _axis_slice(ndim, axis, slice(0, n - 1))
        hi = _axis_slice(ndim, axis, slice(1, n))
        gface, fhat = self._face_buffers(n, axis)
        g_up, g_dn = g[up], g[dn]
        # entry i is face i+1/2; the last one is the upper domain boundary
        np.add(g_up[lo], g_dn[hi], out=gface[lo])
        gface[_axis_slice(ndim, axis, slice(n - 1, n))] = 0.0
        self._accel_flux_ops[j].apply(gface, aux, fhat, accumulate=False)
        if self.velocity_flux == "penalty":
            # local Lax-type jump penalty; the unit-flux face mass is the
            # identity in the orthonormal face basis
            np.subtract(g_up[lo], g_dn[hi], out=gface[lo])
            gface *= 0.5 * self._penalty_speed(aux, j) * aux[f"rdx{cdim + j}"]
            fhat += gface
        glift[up] = fhat
        glift_dn = glift[dn]
        glift_dn[hi] = fhat[lo]
        glift_dn[_axis_slice(ndim, axis, slice(0, 1))] = 0.0

    # ------------------------------------------------------------------ #
    # penalty support (optional robustness flux)
    # ------------------------------------------------------------------ #
    def _penalty_speed(self, aux, j: int) -> float:
        """Conservative scalar estimate of max |alpha_vj| for the penalty."""
        phi0 = self.kernels.cfg_basis.norm(0)
        e_mag = np.max(np.abs(aux[f"E{j}_0"])) * phi0
        vmax = max(
            (self.grid.max_velocity(d) for d in range(self.grid.vdim) if d != j),
            default=0.0,
        )
        b_mag = max(
            float(np.max(np.abs(aux[f"B{comp}_0"]))) * phi0 for comp in range(3)
        )
        return abs(self.charge / self.mass) * (e_mag + vmax * b_mag)

    # ------------------------------------------------------------------ #
    # CFL support
    # ------------------------------------------------------------------ #
    def max_frequency(self, em: np.ndarray) -> float:
        """CFL frequency: sum over directions of
        ``(2p+1) * max|alpha_d| / dx_d`` (Gkeyll's stability estimate)."""
        g = self.grid
        p = self.poly_order
        freq = 0.0
        for j in range(g.cdim):
            freq += (2 * p + 1) * g.max_velocity(j) / g.dx[j]
        phi0 = self.kernels.cfg_basis.norm(0)
        qm = abs(self.charge / self.mass)
        for j in range(g.vdim):
            e_mag = float(np.max(np.abs(em[..., j, 0]))) * phi0
            accel = e_mag
            for vj, bk, _sign in _CROSS_COMPONENTS[j]:
                if vj >= g.vdim:
                    continue
                b_mag = float(np.max(np.abs(em[..., 3 + bk, 0]))) * phi0
                accel += g.max_velocity(vj) * b_mag
            dv = g.dx[g.cdim + j]
            freq += (2 * p + 1) * qm * accel / dv
        return freq


_CROSS_COMPONENTS = {
    0: ((1, 2, +1.0), (2, 1, -1.0)),
    1: ((2, 0, +1.0), (0, 2, -1.0)),
    2: ((0, 1, +1.0), (1, 0, -1.0)),
}


def _axis_slice(ndim: int, axis: int, sl: slice):
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _roll_copy(src: np.ndarray, shift: int, axis: int, out: np.ndarray):
    """``out = roll(src, shift, axis)`` without temporaries (two slab copies)."""
    n = src.shape[axis]
    shift %= n
    if shift == 0:
        np.copyto(out, src)
        return out
    np.copyto(
        out[_axis_slice(src.ndim, axis, slice(0, shift))],
        src[_axis_slice(src.ndim, axis, slice(n - shift, n))],
    )
    np.copyto(
        out[_axis_slice(src.ndim, axis, slice(shift, n))],
        src[_axis_slice(src.ndim, axis, slice(0, n - shift))],
    )
    return out


def _roll_mul(src: np.ndarray, shift: int, axis: int, weight, out: np.ndarray):
    """``out = roll(src, shift, axis) * weight`` without temporaries.

    ``weight`` must broadcast against ``src`` with size one along ``axis``
    (true for the velocity-dependent upwind weights rolled along a
    configuration axis).
    """
    n = src.shape[axis]
    shift %= n
    if shift == 0:
        np.multiply(src, weight, out=out)
        return out
    dst_head = _axis_slice(src.ndim, axis, slice(0, shift))
    dst_tail = _axis_slice(src.ndim, axis, slice(shift, n))
    src_head = _axis_slice(src.ndim, axis, slice(n - shift, n))
    src_tail = _axis_slice(src.ndim, axis, slice(0, n - shift))
    np.multiply(src[src_head], weight, out=out[dst_head])
    np.multiply(src[src_tail], weight, out=out[dst_tail])
    return out
