"""Modal DG solver for (perfectly hyperbolic) Maxwell's equations.

State layout: **cell-major** ``(*cfg_cells, 8, Npc)`` with components
``(Ex, Ey, Ez, Bx, By, Bz, phi, psi)`` on the second-to-last axis — the
per-cell coefficient blocks are contiguous (a plan sweeps each as one
``8 Npc`` row block) and a halo slab along a configuration axis is a
contiguous span.  The equations (normalized,
:math:`\\epsilon_0 = \\mu_0 = 1` by default):

.. math::

   \\partial_t \\mathbf{E} &= c^2 \\nabla \\times \\mathbf{B}
        + \\chi_e c^2 \\nabla \\phi - \\mathbf{J}/\\epsilon_0, \\\\
   \\partial_t \\mathbf{B} &= -\\nabla \\times \\mathbf{E} + \\chi_m \\nabla \\psi, \\\\
   \\partial_t \\phi &= \\chi_e (\\nabla \\cdot \\mathbf{E} - \\rho_c/\\epsilon_0), \\\\
   \\partial_t \\psi &= \\chi_m c^2 \\nabla \\cdot \\mathbf{B},

with the divergence-cleaning speeds ``chi_e``/``chi_m`` zero by default.
With **central fluxes** the semi-discrete field energy changes only through
the :math:`J \\cdot E` work term, which pairs exactly with the particle
energy equation of the alias-free Vlasov update — total energy is conserved
(paper Sec. II).  Upwind (Rusanov) fluxes are available for damping of
under-resolved waves at the cost of that exact conservation.

The right-hand side is four constant plans of the engine that runs every
species operator (:mod:`repro.engine`), over configuration space (``vdim =
0``, every constant folded in, an empty aux): the **volume** term ``sum_d
(2/dx_d) A_d (x) D_d``; the **trace** of each cell's face modes
(:func:`~repro.kernels.generator.face_traces`) times ``(A_d + lam I) / 2``
into its upper-face slot and ``(A_d - lam I) / 2`` into its lower one
(``lam = 0``: central; ``c max(1, chi_e, chi_m)``: upwind, Rusanov); the
**face flux**, the identity with unit weights across the faces of
:func:`~repro.engine.faces.conf_face_map` — periodic on a whole grid, read
out of the ghost layers the caller filled on a block of a larger grid (a
``process:N`` shard, whose grid declares ``Grid.ghost``); and the **lift**
of the fluxes back, times ``-+ 2/dx_d``.  Sources are added in numpy.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Dict, Optional

import numpy as np

from ..basis.matrices import derivative_matrix
from ..basis.modal import ModalBasis
from ..engine.faces import conf_face_map
from ..engine.pool import ScratchPool
from ..engine.program import HeldPlans, joint_label
from ..grid.cartesian import Grid
from ..kernels.generator import FACE_SIGN, face_traces
from ..kernels.grouped import GroupedOperator
from ..kernels.termset import TermSet
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT

__all__ = ["MaxwellSolver", "COMPONENT_NAMES", "project_em_components"]

COMPONENT_NAMES = ("Ex", "Ey", "Ez", "Bx", "By", "Bz", "phi", "psi")


def project_em_components(grid, basis, funcs) -> "np.ndarray":
    """L2-project callables ``{component name: f(*coords)}`` onto the
    8-component cell-major EM layout; missing components are zero.

    The single projection used for field initial conditions and for
    external-drive spatial profiles (any field block)."""
    from ..projection import project_conf_function

    q = np.zeros(grid.cells + (8, basis.num_basis))
    for name, fn in funcs.items():
        comp = COMPONENT_NAMES.index(name)
        q[..., comp, :] = project_conf_function(fn, grid, basis)
    return q


def _flux_jacobians(c: float, chi_e: float, chi_m: float) -> np.ndarray:
    """``A[d]``, ``(3, 8, 8)``: the flux of the components along ``x_d`` is
    ``A[d] q``, and ``dq/dt = -sum_d d(A[d] q)/dx_d``."""
    c2 = c * c
    EX, EY, EZ, BX, BY, BZ, PHI, PSI = range(8)
    a = np.zeros((3, 8, 8))
    # dE/dt = c^2 curl B
    a[1, EX, BZ], a[2, EX, BY] = -c2, c2
    a[0, EY, BZ], a[2, EY, BX] = c2, -c2
    a[0, EZ, BY], a[1, EZ, BX] = -c2, c2
    # dB/dt = -curl E
    a[1, BX, EZ], a[2, BX, EY] = 1.0, -1.0
    a[0, BY, EZ], a[2, BY, EX] = -1.0, 1.0
    a[0, BZ, EY], a[1, BZ, EX] = 1.0, -1.0
    for d in range(3):
        a[d, EX + d, PHI], a[d, PHI, EX + d] = -chi_e * c2, -chi_e
        a[d, BX + d, PSI], a[d, PSI, BX + d] = -chi_m, -chi_m * c2
    return a


def _dense(ts: TermSet) -> np.ndarray:
    mat = np.zeros((ts.nout, ts.nin))
    for row, col, val in ts.entries_by_symbol()[()]:
        mat[row, col] = val
    return mat


class MaxwellSolver:
    """DG discretization of Maxwell's equations on the configuration grid.

    Parameters
    ----------
    grid:
        Configuration-space grid (periodic).
    basis:
        Configuration-space modal basis (shared with the kinetic solver).
    light_speed, epsilon0:
        Physical constants (normalized defaults).
    flux:
        ``"central"`` (energy conserving) or ``"upwind"`` (Rusanov at speed c).
    chi_e, chi_m:
        Perfectly-hyperbolic divergence-cleaning speeds (0 disables).
    """

    def __init__(
        self,
        grid: Grid,
        basis: ModalBasis,
        light_speed: float = 1.0,
        epsilon0: float = 1.0,
        flux: str = "central",
        chi_e: float = 0.0,
        chi_m: float = 0.0,
    ):
        if flux not in ("central", "upwind"):
            raise ValueError("flux must be 'central' or 'upwind'")
        if basis.ndim != grid.ndim:
            raise ValueError("basis and grid dimensionality mismatch")
        self.grid = grid
        self.basis = basis
        self.c = float(light_speed)
        self.epsilon0 = float(epsilon0)
        self.flux = flux
        self.chi_e = float(chi_e)
        self.chi_m = float(chi_m)
        self.num_basis = basis.num_basis
        self.pool = ScratchPool()
        ndim, cells, ghost = grid.ndim, grid.cells, grid.ghost
        # dense 8 Npc-wide operators; direction d owns the trace rows
        # [2 d, 2 d + 2) * 8 Nf: the cell's upper face ("L"), then its lower
        jac = _flux_jacobians(self.c, self.chi_e, self.chi_m)
        lam = self._max_speed() if flux == "upwind" else 0.0
        rdx = [2.0 / dx for dx in grid.dx]
        sides = [
            (d, side, _dense(ts)) for d in range(ndim) for side, ts in face_traces(basis, d)[1].items()
        ]
        volume = sum(np.kron(jac[d], derivative_matrix(basis, d)) * rdx[d] for d in range(ndim))
        trace = np.vstack(
            [np.kron(0.5 * (jac[d] - FACE_SIGN[side] * lam * np.eye(8)), t) for d, side, t in sides]
        )
        lift = np.hstack([np.kron(np.eye(8), t.T) * (FACE_SIGN[side] * rdx[d]) for d, side, t in sides])

        def op(mat):
            rows, cols = np.nonzero(mat)
            ts = TermSet.from_arrays(*mat.shape, {(): [(rows, cols, mat[rows, cols])]})
            return GroupedOperator(ts, ndim, 0, pool=self.pool)

        # traces are taken on every cell handed in (the grid's ghost layers
        # included: none on a whole grid), everything else on the own cells
        nrows, width = trace.shape[0], trace.shape[0] // (2 * ndim)
        cells_in = tuple(n + 2 * g for n, g in zip(cells, ghost))
        self._interior = tuple(slice(g, g + n) for n, g in zip(cells, ghost)) if any(ghost) else None
        self._faces = [conf_face_map(cells, ghost, d, nrows, width) for d in range(ndim)]
        self._plans = HeldPlans(
            [(op(volume), cells), (op(trace), cells_in)]
            + [(op(np.eye(width)), cells) for _d in range(ndim)] + [(op(lift), cells)]
        )
        self._aux: Dict[str, object] = {}
        self._traces_in = np.zeros(cells_in + (nrows,))
        self._traces = np.zeros(cells + (nrows,)) if any(ghost) else self._traces_in

    # ------------------------------------------------------------------ #
    def rhs(
        self,
        q: np.ndarray,
        current: Optional[np.ndarray] = None,
        charge_density: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Evaluate ``dq/dt``.

        Parameters
        ----------
        q:
            Field state, cell-major ``(*cfg_cells, 8, Npc)``, carrying the
            grid's ghost layers (none on a whole grid).
        current:
            Optional plasma current ``(*cfg_cells, 3, Npc)`` (enters as
            ``-J/epsilon0`` in the E equations).
        charge_density:
            Optional ``(*cfg_cells, Npc)`` for the phi cleaning source.
        out:
            Optional C-contiguous output array, ``(*cfg_cells, 8, Npc)``
            without ghosts (contents discarded and replaced).

        One call: volume into ``out``, then trace -> face fluxes -> lift
        added to it — one ``plan_apply`` span and count."""
        if out is None:
            out = np.empty(self.grid.cells + (8, self.num_basis))
        elif not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous (the plans write it in place)")
        t0 = _perf_counter()
        aux, src, dst = self._aux, self._traces_in, self._traces
        volume, trace, *fluxes, lift = plans = self._plans(aux)
        own = q if self._interior is None else q[self._interior]
        dq = out.reshape(volume.out_shape)
        volume.run(aux, own.reshape(volume.in_shape), dq, False)
        trace.run(aux, q.reshape(trace.in_shape), src, False)
        for plan, fm in zip(fluxes, self._faces):
            plan.run_faces(aux, src, dst, fm)
        lift.run(aux, dst, dq)
        if _OBS.on:
            slots = (_OBS_SLOT["plan_applies"], _OBS_SLOT["plan_apply_ms"])
            _OBS.finish(joint_label(plans), t0, *slots)
        if current is not None:
            out[..., 0:3, :] -= current / self.epsilon0
        if charge_density is not None and self.chi_e:
            out[..., 6, :] -= self.chi_e * charge_density / self.epsilon0
        return out

    def _max_speed(self) -> float:
        return self.c * max(1.0, self.chi_e, self.chi_m)

    # ------------------------------------------------------------------ #
    def field_energy(self, q: np.ndarray) -> float:
        """Total EM energy ``(eps0/2) int (|E|^2 + c^2 |B|^2) dx``.

        By orthonormality, the cell integral of a squared DG field is the
        squared coefficient norm times the cell Jacobian.
        """
        jac = float(np.prod([0.5 * dx for dx in self.grid.dx]))
        e2 = float(np.sum(q[..., 0:3, :] ** 2))
        b2 = float(np.sum(q[..., 3:6, :] ** 2))
        return 0.5 * self.epsilon0 * (e2 + self.c ** 2 * b2) * jac

    def max_frequency(self) -> float:
        """CFL frequency for the EM waves."""
        p = self.basis.poly_order
        return sum(
            (2 * p + 1) * self._max_speed() / dx for dx in self.grid.dx
        )

    def project_initial_condition(self, funcs: Dict[str, object]) -> np.ndarray:
        """L2-project callables ``{component name: f(*coords)}`` onto the
        basis; missing components are zero."""
        return project_em_components(self.grid, self.basis, funcs)
