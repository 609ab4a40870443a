"""Per-shard block execution: ghost-aware RHS evaluation on sub-grids.

Each worker process owns one configuration-cell block (plus a single ghost
layer along every decomposed axis) and evaluates the *same* per-cell update
the serial solvers perform — same compiled-plan structure, same operand
shapes per cell, same accumulation order — so a sharded run is bit-identical
to a serial one.  Three things make that work:

* :class:`BlockGrid` gives the block the parent grid's geometry *bitwise*
  (``dx``, centers, edges are taken from the parent, never recomputed from
  the block's own bounds, whose floating-point rounding could differ by an
  ulp and leak into every kernel coefficient);
* the Maxwell surface terms are evaluated in a "shifted trace" form: where
  the serial code rolls a periodic array, the block code reads the same
  neighbour values out of its ghost layer and accumulates them in the same
  order; the Vlasov streaming terms do the same in the face-mode space —
  the padded state is traced once and a neighbour's face trace is a
  shifted view of that reduced array;
* every dense product batches over the block's cells with unchanged
  per-cell shapes, and the engine's products are per-cell independent.

With the cell-major layout the configuration axes lead every state array,
so a halo slab is a contiguous span of memory: :func:`fill_padded` moves
ghost layers with plain slab copies (for a slab decomposition they are
single ``memcpy``-shaped block transfers), and the block interior of a
1-axis decomposition is itself a contiguous view — no
``ascontiguousarray`` staging at all on that path.

The serial solvers remain the single source of truth for the per-cell
math: blocks run their compiled operators (volume, trace, face flux, lift)
and their face-flux methods rather than duplicating them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..grid.cartesian import Grid
from ..grid.phase import PhaseGrid
from ..moments.calc import MomentCalculator
from ..vlasov.modal_solver import VlasovModalSolver
from .plan import HaloStats, ShardPlan

__all__ = ["BlockGrid", "BlockSpecies", "BlockMaxwellRHS", "fill_padded"]


class BlockGrid(Grid):
    """A contiguous sub-block of a parent grid with bitwise-parent geometry.

    ``dx``, ``centers``, ``edges`` and ``cell_center`` delegate to the
    parent so a solver built on the block sees exactly the numbers the
    serial solver sees — the block's own ``lower``/``upper`` (kept for
    repr/validation only) are never used in kernel arithmetic.
    """

    def __init__(self, parent: Grid, ranges: Sequence[Tuple[int, int]]):
        ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        if len(ranges) != parent.ndim:
            raise ValueError(
                f"need one (lo, hi) range per dimension ({parent.ndim}), got {len(ranges)}"
            )
        for d, (lo, hi) in enumerate(ranges):
            if not 0 <= lo < hi <= parent.cells[d]:
                raise ValueError(f"axis {d}: range {(lo, hi)} outside {parent.cells[d]} cells")
        dx = parent.dx
        Grid.__init__(
            self,
            [parent.lower[d] + lo * dx[d] for d, (lo, _) in enumerate(ranges)],
            [parent.lower[d] + hi * dx[d] for d, (_, hi) in enumerate(ranges)],
            [hi - lo for lo, hi in ranges],
        )
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "ranges", tuple(ranges))

    @property
    def dx(self) -> Tuple[float, ...]:
        return self.parent.dx

    def centers(self, dim: int) -> np.ndarray:
        lo, hi = self.ranges[dim]
        return self.parent.centers(dim)[lo:hi]

    def edges(self, dim: int) -> np.ndarray:
        lo, hi = self.ranges[dim]
        return self.parent.edges(dim)[lo : hi + 1]

    def cell_center(self, idx: Sequence[int]) -> Tuple[float, ...]:
        return self.parent.cell_center(
            [self.ranges[d][0] + int(i) for d, i in enumerate(idx)]
        )

    def extend(self, other: Grid) -> "BlockGrid":
        return BlockGrid(
            self.parent.extend(other),
            list(self.ranges) + [(0, n) for n in other.cells],
        )


# --------------------------------------------------------------------- #
def fill_padded(
    shared: np.ndarray,
    pad_buf: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    pad: Sequence[int],
    conf_cells: Sequence[int],
    stats: Optional[HaloStats] = None,
) -> None:
    """Copy a shard's block (+ periodic ghost layers) from a globally-shaped
    array into its padded private buffer.

    Cell-major layout: the configuration axes *lead* every state array
    (distribution and EM alike), so the slices below address leading axes
    and each ghost slab is a contiguous span of the shared segment.  Only
    the ghost slabs count as halo traffic in ``stats`` — the interior copy
    is a node-local load that a real MPI run would not send.
    """
    cdim = len(ranges)
    interior = tuple(
        slice(p, p + hi - lo) for (lo, hi), p in zip(ranges, pad)
    )
    own = tuple(slice(lo, hi) for lo, hi in ranges)
    pad_buf[interior] = shared[own]
    for d in range(cdim):
        if not pad[d]:
            continue
        n = int(conf_cells[d])
        lo, hi = ranges[d]
        nloc = hi - lo
        for ghost_idx, src_idx in ((0, (lo - 1) % n), (nloc + 1, hi % n)):
            dst = tuple(
                slice(ghost_idx, ghost_idx + 1) if dd == d else interior[dd]
                for dd in range(cdim)
            )
            src = tuple(
                slice(src_idx, src_idx + 1) if dd == d else own[dd]
                for dd in range(cdim)
            )
            ghost = shared[src]
            pad_buf[dst] = ghost
            if stats is not None:
                stats.record(ghost)


# --------------------------------------------------------------------- #
class BlockSpecies:
    """One species' solver stack on a shard block.

    Wraps a :class:`~repro.vlasov.modal_solver.VlasovModalSolver` built on
    the block's phase grid and evaluates the Vlasov RHS from the padded
    state with the serial solver's operators in the serial order (volume,
    trace, face fluxes, lift), so the result is the serial one bit for bit.
    """

    def __init__(
        self,
        name: str,
        solver: VlasovModalSolver,
        moments: MomentCalculator,
        collisions,
        pad: Tuple[int, ...],
    ):
        if solver.velocity_flux != "central":
            raise ValueError(
                "process sharding supports the central velocity flux only "
                "(the penalty speed is a global reduction)"
            )
        self.name = name
        self.solver = solver
        self.moments = moments
        self.collisions = collisions
        self.pad = pad
        g = solver.grid
        self.cdim, self.vdim = g.cdim, g.vdim
        self.cells = g.cells
        # cell-major padded buffer: padded cfg axes lead, then basis, then vel
        self.pad_shape = (
            tuple(n + 2 * p for n, p in zip(g.conf.cells, pad))
            + (solver.num_basis,)
            + g.vel.cells
        )
        self._trace_pad_shape = (
            self.pad_shape[: self.cdim]
            + (solver.trace_shape[self.cdim],)
            + g.vel.cells
        )
        self._interior = tuple(
            slice(p, p + n) for n, p in zip(g.conf.cells, pad)
        )
        self._f_int: Optional[np.ndarray] = None
        self._f_buf: Optional[np.ndarray] = None

    def interior(self, f_pad: np.ndarray) -> np.ndarray:
        """The padded state's interior (the block state).  For a slab
        decomposition the cell-major interior is already a contiguous view
        — returned as is, no copy; otherwise it is staged once into a
        persistent buffer.  The result is cached on ``_f_int`` for the
        moment/collision consumers of the same stage."""
        view = f_pad[self._interior]
        if view.flags.c_contiguous:
            self._f_int = view
        else:
            if self._f_buf is None:
                self._f_buf = np.empty(self.solver.layout.shape)
            np.copyto(self._f_buf, view)
            self._f_int = self._f_buf
        return self._f_int

    def rhs(self, f_pad: np.ndarray, em_block: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``df/dt`` on the block interior (``out`` is interior-shaped)."""
        solver = self.solver
        f_int = self.interior(f_pad)
        aux = solver.field_aux(em_block)
        solver._vol_op.apply(f_int, aux, out, accumulate=False)
        # both face traces of every padded cell, ghosts included; the fluxes
        # go to the interior-shaped buffer the lift reads
        g_pad = solver.pool.get("block.trace", self._trace_pad_shape)
        solver._trace_op.apply(f_pad, aux, g_pad, accumulate=False)
        g = solver.pool.get("solver.trace", solver.trace_shape)
        g_int = g_pad[self._interior]
        for j in range(self.cdim):
            if self.pad[j]:
                self._ghost_streaming_flux(j, g_pad, g, aux)
            else:  # the block spans this axis: the serial periodic roll
                solver._streaming_flux(j, g_int, g, aux)
        for j in range(self.vdim):
            solver._acceleration_flux(j, g_int, g, aux)
        solver._lift_op.apply(g, aux, out)
        return out

    def _ghost_streaming_flux(self, j, g_pad, g, aux) -> None:
        """:meth:`VlasovModalSolver._streaming_flux` along a decomposed
        axis: the ``n + 1`` faces touching the block's cells, the outer two
        taking one trace from the ghost layer instead of a periodic roll."""
        solver = self.solver
        n = self.cells[j]
        up, dn = solver._slots[j]

        def window(start):  # padded cells start .. start + n along axis j
            sl = list(self._interior)
            sl[j] = slice(start, start + n + 1)
            return g_pad[tuple(sl)]

        gface, fhat = solver._face_buffers(n + 1, j)
        # entry i is the lower face of block cell i (padded cell i + 1)
        np.multiply(window(0)[up], solver._upwind_pos_b[j], out=gface)
        np.multiply(window(1)[dn], solver._upwind_neg_b[j], out=fhat)
        gface += fhat
        solver._stream_flux_ops[j].apply(gface, aux, fhat, accumulate=False)
        lower = [slice(None)] * fhat.ndim
        upper = list(lower)
        lower[j], upper[j] = slice(0, n), slice(1, n + 1)
        g[up] = fhat[tuple(upper)]
        g[dn] = fhat[tuple(lower)]


# --------------------------------------------------------------------- #
class BlockMaxwellRHS:
    """Ghost-aware Maxwell RHS on a shard block.

    Reuses the serial :class:`~repro.fields.maxwell.MaxwellSolver`'s flux
    entries and (transposed) basis matrices on the cell-major layout
    ``(*cfg, 8, Npc)``, replacing each periodic roll with a read of the
    padded buffer while keeping the serial accumulation order and the
    identical per-cell ``matmul`` calls.
    """

    def __init__(self, maxwell, plan: ShardPlan, shard: int):
        self.mx = maxwell
        self.pad = plan.pad
        self.ranges = plan.ranges(shard)
        self.block_cells = plan.block_cells(shard)
        self.cdim = len(self.block_cells)
        self._interior = tuple(
            slice(p, p + n) for n, p in zip(self.block_cells, self.pad)
        )

    def _shift(self, arr_pad: np.ndarray, axis_d: int, shift: int) -> np.ndarray:
        sl = list(self._interior)
        p = self.pad[axis_d]
        n = self.block_cells[axis_d]
        sl[axis_d] = slice(p + shift, p + shift + n)
        return arr_pad[tuple(sl)]

    def rhs(
        self,
        q_pad: np.ndarray,
        current: Optional[np.ndarray] = None,
        charge_density: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        mx = self.mx
        if out is None:
            out = np.zeros(self.block_cells + (8, mx.num_basis))
        else:
            out.fill(0.0)
        for d in range(self.cdim):
            rdx = mx._rdx[d]
            g_pad = mx._apply_flux_jacobian(q_pad, d)
            out += rdx * np.matmul(g_pad[self._interior], mx._deriv_t[d])
            fm = mx._faces_t[d]
            axis = d
            if not self.pad[d]:
                g = g_pad[self._interior]
                g_left = 0.5 * g
                g_right = 0.5 * np.roll(g, -1, axis=axis)
                inc_left = np.matmul(g_left, fm[("L", "L")])
                inc_left += np.matmul(g_right, fm[("L", "R")])
                inc_right = np.matmul(g_left, fm[("R", "L")])
                inc_right += np.matmul(g_right, fm[("R", "R")])
                if mx.flux == "upwind":
                    tau = mx._max_speed()
                    q = q_pad[self._interior]
                    jump_l = 0.5 * tau * q
                    jump_r = -0.5 * tau * np.roll(q, -1, axis=axis)
                    inc_left += np.matmul(jump_l, fm[("L", "L")])
                    inc_left += np.matmul(jump_r, fm[("L", "R")])
                    inc_right += np.matmul(jump_l, fm[("R", "L")])
                    inc_right += np.matmul(jump_r, fm[("R", "R")])
                out += rdx * inc_left
                out += rdx * np.roll(inc_right, 1, axis=axis)
                continue
            gl_pad = 0.5 * g_pad
            g_c = self._shift(gl_pad, d, 0)
            g_p = self._shift(gl_pad, d, +1)
            g_m = self._shift(gl_pad, d, -1)
            inc_left = np.matmul(g_c, fm[("L", "L")])
            inc_left += np.matmul(g_p, fm[("L", "R")])
            inc_right = np.matmul(g_m, fm[("R", "L")])
            inc_right += np.matmul(g_c, fm[("R", "R")])
            if mx.flux == "upwind":
                tau = mx._max_speed()
                jl_c = 0.5 * tau * self._shift(q_pad, d, 0)
                jl_m = 0.5 * tau * self._shift(q_pad, d, -1)
                jr_c = -0.5 * tau * self._shift(q_pad, d, 0)
                jr_p = -0.5 * tau * self._shift(q_pad, d, +1)
                inc_left += np.matmul(jl_c, fm[("L", "L")])
                inc_left += np.matmul(jr_p, fm[("L", "R")])
                inc_right += np.matmul(jl_m, fm[("R", "L")])
                inc_right += np.matmul(jr_c, fm[("R", "R")])
            out += rdx * inc_left
            out += rdx * inc_right
        if current is not None:
            out[..., 0:3, :] -= current / mx.epsilon0
        if charge_density is not None and mx.chi_e:
            out[..., 6, :] -= mx.chi_e * charge_density / mx.epsilon0
        return out


# --------------------------------------------------------------------- #
def build_block_species(app, plan: ShardPlan, shard: int) -> List[BlockSpecies]:
    """Build the per-species block solver stacks for one shard of ``app``
    (a serial :class:`~repro.systems.system.System`, any field closure)."""
    block_conf = BlockGrid(app.conf_grid, plan.ranges(shard))
    out = []
    for sp in app.species:
        pg = PhaseGrid(block_conf, sp.velocity_grid)
        serial = app.solvers[sp.name]
        solver = VlasovModalSolver(
            pg,
            app.poly_order,
            app.family,
            sp.charge,
            sp.mass,
            velocity_flux=serial.velocity_flux,
        )
        moments = MomentCalculator(pg, solver.kernels, pool=solver.pool)
        collisions = _rebuild_collisions(sp.collisions, pg, app)
        out.append(BlockSpecies(sp.name, solver, moments, collisions, plan.pad))
    return out


def _rebuild_collisions(coll, block_pg: PhaseGrid, app):
    """Recreate a collision operator on the block phase grid (collisions are
    configuration-local, so the block operator is the serial one restricted
    to the block's cells)."""
    if coll is None:
        return None
    kind = type(coll).__name__
    if kind == "LBOCollisions":
        if coll.fixed_u is not None or coll.fixed_vtsq is not None:
            raise ValueError("process sharding does not support frozen LBO moments")
        from ..collisions.lbo import LBOCollisions

        return LBOCollisions(
            block_pg, app.poly_order, app.family, nu=coll.nu
        )
    if kind == "BGKCollisions":
        from ..collisions.bgk import BGKCollisions

        return BGKCollisions(block_pg, app.poly_order, app.family, nu=coll.nu)
    raise ValueError(f"process sharding does not support collisions of type {kind}")
