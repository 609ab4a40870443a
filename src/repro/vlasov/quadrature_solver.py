"""Alias-free *nodal/quadrature* Vlasov baseline (Juno et al. 2018).

This is the comparator of the paper's Table I: a DG scheme that eliminates
aliasing the expensive way — interpolate the state to an over-integrating
Gauss grid (``N_q >= (3p+2)/2`` points per direction, enough to integrate the
quadratically nonlinear terms exactly), evaluate the phase-space flux
pointwise, and project back with dense ``N_p x N_q`` matrices.  Dense BLAS
matrix products (NumPy's ``dgemm``) play the role the Eigen library plays in
the paper.

State is cell-major (``(*cfg_cells, Np, *vel_cells)``, EM
``(*cfg_cells, 8, Npc)``), so the interpolation/projection products batch
directly over the contiguous per-configuration-cell blocks — the same
zero-transpose discipline as the modal solver.  Quadrature values live on a
"node axis" in the basis-axis slot, which keeps every elementwise flux
operation a plain broadcast.

Because the quadrature is exact for every integrand, this solver and
:class:`~repro.vlasov.modal_solver.VlasovModalSolver` produce **identical**
right-hand sides to machine precision — the comparison between them isolates
*computational cost*, exactly as the paper's experiment does.  It implements
the same flux choices (cell-center-sign upwinding in configuration space,
central in velocity space, zero-flux velocity boundaries).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..basis.modal import ModalBasis, tensor_gauss_points
from ..engine.layout import StateLayout, insert_basis_axis
from ..engine.pool import ScratchPool
from ..grid.phase import PhaseGrid
from ..kernels.flops import alias_free_quadrature_points_1d
from .modal_solver import CflEstimate

__all__ = ["VlasovQuadratureSolver"]


class VlasovQuadratureSolver:
    """Dense, quadrature-based, alias-free Vlasov DG solver (the baseline)."""

    def __init__(
        self,
        phase_grid: PhaseGrid,
        poly_order: int,
        family: str = "serendipity",
        charge: float = -1.0,
        mass: float = 1.0,
        quad_points_1d: Optional[int] = None,
    ):
        self.grid = phase_grid
        self.poly_order = int(poly_order)
        self.family = family
        self.charge = float(charge)
        self.mass = float(mass)
        # interpolation/projection matrices are fixed at construction (the
        # quadrature analogue of a compiled plan); the pool covers the
        # dense products' scratch
        self.pool = ScratchPool()
        pdim = phase_grid.pdim
        cdim = phase_grid.cdim
        self.basis = ModalBasis(pdim, poly_order, family)
        self.cfg_basis = ModalBasis(cdim, poly_order, family)
        self.num_basis = self.basis.num_basis
        self.num_conf_basis = self.cfg_basis.num_basis
        self.layout = StateLayout.for_grid(phase_grid, self.num_basis)
        self._cfl = CflEstimate(phase_grid, poly_order, self.cfg_basis, self.charge, self.mass)
        self.nq1 = quad_points_1d or alias_free_quadrature_points_1d(poly_order)

        # --- volume quadrature data -------------------------------------
        pts, wts = tensor_gauss_points(self.nq1, pdim)
        self.vol_pts = pts                      # (Nqv, pdim)
        self.vol_wts = wts                      # (Nqv,)
        self.vol_interp = self.basis.eval_at(pts)            # (Np, Nqv)
        self.vol_interp_t = np.ascontiguousarray(self.vol_interp.T)
        self.vol_deriv = [
            self.basis.eval_deriv_at(pts, d) for d in range(pdim)
        ]
        self.cfg_vol_interp = self.cfg_basis.eval_at(pts[:, :cdim])  # (Npc, Nqv)

        # --- face quadrature data (per direction, per side) -------------
        self.face_pts: List[np.ndarray] = []
        self.face_wts: List[np.ndarray] = []
        self.face_interp: List[Dict[str, np.ndarray]] = []
        self.face_interp_t: List[Dict[str, np.ndarray]] = []
        self.cfg_face_interp: List[np.ndarray] = []
        for d in range(pdim):
            if pdim > 1:
                fpts, fwts = tensor_gauss_points(self.nq1, pdim - 1)
            else:
                fpts, fwts = np.zeros((1, 0)), np.ones(1)
            full_hi = np.insert(fpts, d, 1.0, axis=1)
            full_lo = np.insert(fpts, d, -1.0, axis=1)
            self.face_pts.append(fpts)
            self.face_wts.append(fwts)
            self.face_interp.append(
                {
                    # "L": trace of the left cell on its right face (xi_d=+1)
                    "L": self.basis.eval_at(full_hi),
                    # "R": trace of the right cell on its left face (xi_d=-1)
                    "R": self.basis.eval_at(full_lo),
                }
            )
            self.face_interp_t.append(
                {s: np.ascontiguousarray(m.T) for s, m in self.face_interp[-1].items()}
            )
            self.cfg_face_interp.append(self.cfg_basis.eval_at(full_hi[:, :cdim]))

        # streaming upwind weights (same rule as the modal solver), with the
        # node axis inserted at the basis-axis slot
        self._upwind_pos = []
        for j in range(cdim):
            w = phase_grid.velocity_center_array(j)
            pos = np.where(w > 0, 1.0, np.where(w < 0, 0.0, 0.5))
            self._upwind_pos.append(insert_basis_axis(pos, cdim))

    # ------------------------------------------------------------------ #
    # node-axis views
    # ------------------------------------------------------------------ #
    def _node_view(self, arr3: np.ndarray, naxis: int, vel_shape) -> np.ndarray:
        """View a ``(ncfg, naxis, nvel)`` batch as ``(*cfg, naxis, *vel)``."""
        return arr3.reshape(self.grid.conf.cells + (naxis,) + tuple(vel_shape))

    # ------------------------------------------------------------------ #
    # flux evaluation at reference points
    # ------------------------------------------------------------------ #
    def _alpha_at_points(self, d: int, pts: np.ndarray, cfg_interp: np.ndarray, em):
        """Phase-space flux component ``alpha_d`` at the given reference
        points, shaped to broadcast as ``(*cfg, Nq, *vel)`` (node axis in
        the basis-axis slot)."""
        g = self.grid
        cdim, vdim = g.cdim, g.vdim
        nq = pts.shape[0]
        qshape = (1,) * cdim + (nq,) + (1,) * vdim
        if d < cdim:  # streaming: alpha = v_d
            dv = cdim + d
            xi = pts[:, dv].reshape(qshape)
            w = insert_basis_axis(g.velocity_center_array(d), cdim)
            return w + 0.5 * g.dx[dv] * xi
        # acceleration: (q/m)(E_j + (v x B)_j)
        j = d - cdim
        qm = self.charge / self.mass

        def field_at_points(comp: int) -> np.ndarray:
            vals = np.einsum("kq,...k->...q", cfg_interp, em[..., comp, :])
            return vals.reshape(g.conf.cells + (nq,) + (1,) * vdim)

        alpha = field_at_points(j).copy()
        cross = {
            0: ((1, 5, +1.0), (2, 4, -1.0)),
            1: ((2, 3, +1.0), (0, 5, -1.0)),
            2: ((0, 4, +1.0), (1, 3, -1.0)),
        }
        for vj, bcomp, sign in cross[j]:
            if vj >= vdim:
                continue
            dvj = cdim + vj
            xi = pts[:, dvj].reshape(qshape)
            v = insert_basis_axis(g.velocity_center_array(vj), cdim) + 0.5 * g.dx[dvj] * xi
            alpha = alpha + sign * v * field_at_points(bcomp)
        return qm * alpha

    # ------------------------------------------------------------------ #
    def rhs(
        self, f: np.ndarray, em: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Evaluate ``df/dt`` via dense interpolate -> flux -> project
        (cell-major state in, cell-major state out)."""
        g = self.grid
        lay = self.layout
        if f.shape != lay.shape:
            raise ValueError(
                f"f has shape {f.shape}, expected cell-major {lay.shape}"
            )
        if out is None:
            out = np.zeros_like(f)
        else:
            out.fill(0.0)
        pdim = g.pdim
        cdim, vdim = g.cdim, g.vdim
        ncfg, nvel = lay.ncfg, lay.nvel
        rdx = [2.0 / dx for dx in g.dx]
        f3 = f.reshape(ncfg, self.num_basis, nvel)
        out3 = out.reshape(ncfg, self.num_basis, nvel)
        vel_cells = g.vel.cells

        # ---------------- volume ----------------------------------------
        # interpolate to quadrature points: one batched product over the
        # contiguous per-configuration-cell blocks
        nq = self.vol_pts.shape[0]
        fq3 = self.pool.get("quad.fq", (ncfg, nq, nvel))
        np.matmul(self.vol_interp_t, f3, out=fq3)
        fq = self._node_view(fq3, nq, vel_cells)
        wq = self.vol_wts.reshape((1,) * cdim + (-1,) + (1,) * vdim)
        flux3 = self.pool.get("quad.flux", (ncfg, nq, nvel))
        flux = self._node_view(flux3, nq, vel_cells)
        proj3 = self.pool.get("quad.proj", (ncfg, self.num_basis, nvel))
        for d in range(pdim):
            alpha = self._alpha_at_points(d, self.vol_pts, self.cfg_vol_interp, em)
            np.multiply(alpha, fq, out=flux)
            flux *= wq
            np.matmul(self.vol_deriv[d], flux3, out=proj3)
            proj3 *= rdx[d]
            out3 += proj3

        # ---------------- surfaces --------------------------------------
        for d in range(pdim):
            interp = self.face_interp[d]
            interp_t = self.face_interp_t[d]
            cfg_interp = self.cfg_face_interp[d]
            nqf = self.face_pts[d].shape[0]
            # face points of a face along d: xi_d fixed; alpha never depends
            # on xi_d, so either embedding gives the same flux values.
            full_pts = np.insert(self.face_pts[d], d, 1.0, axis=1)
            wqf = self.face_wts[d].reshape((1,) * cdim + (-1,) + (1,) * vdim)
            alpha = self._alpha_at_points(d, full_pts, cfg_interp, em)
            trl3 = self.pool.get("quad.trl", (ncfg, nqf, nvel))
            trr3 = self.pool.get("quad.trr", (ncfg, nqf, nvel))
            if d < cdim:
                axis = d  # configuration axes lead in cell-major layout
                # periodic config faces, upwind by cell-center velocity sign
                pos = self._upwind_pos[d]
                f_right_cells = np.roll(f, -1, axis=axis)
                np.matmul(interp_t["L"], f3, out=trl3)
                np.matmul(
                    interp_t["R"],
                    f_right_cells.reshape(ncfg, self.num_basis, nvel),
                    out=trr3,
                )
                trace_l = self._node_view(trl3, nqf, vel_cells)
                trace_r = self._node_view(trr3, nqf, vel_cells)
                fhat = wqf * alpha * (pos * trace_l + (1.0 - pos) * trace_r)
                fhat3 = fhat.reshape(ncfg, nqf, nvel)
                inc3 = self.pool.get("quad.inc", (ncfg, self.num_basis, nvel))
                np.matmul(interp["L"], fhat3, out=inc3)
                out3 -= rdx[d] * inc3
                np.matmul(interp["R"], fhat3, out=inc3)
                inc = self._node_view(inc3, self.num_basis, vel_cells)
                out += rdx[d] * np.roll(inc, 1, axis=axis)
            else:
                # interior velocity faces, central flux, zero-flux
                # boundaries: traces are per-cell quantities, so both are
                # computed on the full contiguous state and the boundary
                # cells are excluded from the face combination below
                axis = 1 + d  # basis axis shifts the velocity axes by one
                n = f.shape[axis]
                if n < 2:
                    continue
                np.matmul(interp_t["L"], f3, out=trl3)
                np.matmul(interp_t["R"], f3, out=trr3)
                trace_l = self._node_view(trl3, nqf, vel_cells)
                trace_r = self._node_view(trr3, nqf, vel_cells)
                sl_lo = (slice(None),) * axis + (slice(0, n - 1),)
                sl_hi = (slice(None),) * axis + (slice(1, n),)
                # fresh contiguous face-shaped product (alpha has no
                # dependence on this velocity direction, so no slicing)
                fhat = wqf * alpha * 0.5 * (trace_l[sl_lo] + trace_r[sl_hi])
                nvel_f = nvel // n * (n - 1)
                fhat3 = fhat.reshape(ncfg, nqf, nvel_f)
                inc3 = self.pool.get("quad.incf", (ncfg, self.num_basis, nvel_f))
                np.matmul(interp["L"], fhat3, out=inc3)
                inc = inc3.reshape(fhat.shape[:cdim] + (self.num_basis,) + fhat.shape[cdim + 1 :])
                out[sl_lo] -= rdx[d] * inc
                np.matmul(interp["R"], fhat3, out=inc3)
                out[sl_hi] += rdx[d] * inc
        return out

    def max_frequency(self, em: np.ndarray) -> float:
        """Same CFL estimate as the modal solver."""
        return self._cfl(em)
