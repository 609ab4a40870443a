"""Modal DG solver for (perfectly hyperbolic) Maxwell's equations.

State layout: **cell-major** ``(*cfg_cells, 8, Npc)`` with components
``(Ex, Ey, Ez, Bx, By, Bz, phi, psi)`` on the second-to-last axis — the
per-cell coefficient blocks are contiguous (the batched products below are
plain ``matmul`` on the trailing axes) and a halo slab along a
configuration axis is a contiguous span.  The equations (normalized,
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

Surface terms read each cell's two neighbours out of a one-cell ghost
layer: on a whole grid :meth:`MaxwellSolver.rhs` wraps the state
periodically to make it; on one block of a larger grid (a ``process:N``
shard, whose grid declares ``Grid.ghost``) the caller passes the state with
the neighbouring blocks' cells already in place.  One body serves both.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..basis.matrices import derivative_matrix, face_matrices
from ..basis.modal import ModalBasis
from ..grid.cartesian import Grid

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

# flux matrices: FLUX[d] maps state -> flux of each component along x_d,
# as a list of (target_component, source_component, coefficient_kind)
# where coefficient kinds are resolved with c at solver construction.


def _flux_entries(c: float, chi_e: float, chi_m: float):
    c2 = c * c
    # component indices
    EX, EY, EZ, BX, BY, BZ, PHI, PSI = range(8)
    flux = {0: [], 1: [], 2: []}
    # dE/dt = c^2 curl B  => flux_d entries
    flux[1].append((EX, BZ, -c2))
    flux[2].append((EX, BY, +c2))
    flux[0].append((EY, BZ, +c2))
    flux[2].append((EY, BX, -c2))
    flux[0].append((EZ, BY, -c2))
    flux[1].append((EZ, BX, +c2))
    # dB/dt = -curl E
    flux[1].append((BX, EZ, +1.0))
    flux[2].append((BX, EY, -1.0))
    flux[0].append((BY, EZ, -1.0))
    flux[2].append((BY, EX, +1.0))
    flux[0].append((BZ, EY, +1.0))
    flux[1].append((BZ, EX, -1.0))
    if chi_e:
        for d, e in enumerate((EX, EY, EZ)):
            flux[d].append((e, PHI, -chi_e * c2))
            flux[d].append((PHI, e, -chi_e))
    if chi_m:
        for d, b in enumerate((BX, BY, BZ)):
            flux[d].append((b, PSI, -chi_m))
            flux[d].append((PSI, b, -chi_m * c2))
    return flux


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
        ndim = grid.ndim
        self._flux_entries = _flux_entries(self.c, self.chi_e, self.chi_m)
        # transposed operator matrices: cell-major blocks right-multiply
        # (``g @ D^T`` batches over cells and components in one matmul)
        self._deriv_t = [derivative_matrix(basis, d).T.copy() for d in range(ndim)]
        self._faces_t = [
            {side: m.T.copy() for side, m in face_matrices(basis, d).items()}
            for d in range(ndim)
        ]
        self._rdx = [2.0 / dx for dx in grid.dx]

    # ------------------------------------------------------------------ #
    def allocate(self) -> np.ndarray:
        return np.zeros(self.grid.cells + (8, self.num_basis))

    def _apply_flux_jacobian(self, q: np.ndarray, d: int) -> np.ndarray:
        """Compute ``A_d q`` component-wise (sparse in components)."""
        out = np.zeros_like(q)
        for tgt, src, coeff in self._flux_entries[d]:
            out[..., tgt, :] += coeff * q[..., src, :]
        return out

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
            Optional output array, ``(*cfg_cells, 8, Npc)`` without ghosts
            (contents discarded and replaced).
        """
        grid = self.grid
        ndim = grid.ndim
        if out is None:
            out = np.zeros(grid.cells + (8, self.num_basis))
        else:
            out.fill(0.0)
        # One body for a whole grid and for a block of one: every axis
        # gets a ghost layer — a periodic wrap wherever the caller's halo
        # did not supply the neighbouring block's cells (8 Npc doubles per
        # configuration cell: nothing next to the distribution function).
        if not all(grid.ghost):
            q = np.pad(
                q, [(1 - g, 1 - g) for g in grid.ghost] + [(0, 0)] * 2, mode="wrap"
            )
        own = (slice(1, -1),) * ndim

        def shifted(arr, d, shift):  # own cells' neighbours along axis d
            sl = list(own)
            sl[d] = slice(1 + shift, arr.shape[d] - 1 + shift)
            return arr[tuple(sl)]

        if self.flux == "upwind":
            jump_l = 0.5 * self._max_speed() * q
            jump_r = -jump_l
        for d in range(ndim):
            rdx = self._rdx[d]
            g = self._apply_flux_jacobian(q, d)
            # volume: out[cell, c] += rdx * g[cell, c] @ D_d^T (batched matmul)
            out += rdx * np.matmul(g[own], self._deriv_t[d])
            # surfaces: a cell's upper face takes the "L" rows (this cell
            # left of the face, the next one right), its lower face the
            # "R" rows (the previous cell left, this one right)
            g *= 0.5
            fm = self._faces_t[d]
            inc_left = np.matmul(g[own], fm[("L", "L")])
            inc_left += np.matmul(shifted(g, d, +1), fm[("L", "R")])
            inc_right = np.matmul(shifted(g, d, -1), fm[("R", "L")])
            inc_right += np.matmul(g[own], fm[("R", "R")])
            if self.flux == "upwind":
                inc_left += np.matmul(jump_l[own], fm[("L", "L")])
                inc_left += np.matmul(shifted(jump_r, d, +1), fm[("L", "R")])
                inc_right += np.matmul(shifted(jump_l, d, -1), fm[("R", "L")])
                inc_right += np.matmul(jump_r[own], fm[("R", "R")])
            out += rdx * inc_left
            out += rdx * inc_right
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
