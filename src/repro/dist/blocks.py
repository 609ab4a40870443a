"""A shard's block of the configuration grid, and its ghost-layer fill.

Nothing in this module evaluates anything: the per-cell update is the
serial solvers' — :class:`~repro.vlasov.modal_solver.VlasovModalSolver` and
:class:`~repro.fields.maxwell.MaxwellSolver` read neighbour cells out of
the ghost layers their grid declares — and a shard worker runs them inside
a real :class:`~repro.systems.system.System` built on a
:class:`BlockGrid`.  Two things make that block System bit-identical to
the serial one restricted to the block:

* :class:`BlockGrid` gives the block the parent grid's geometry *bitwise*
  (``dx``, centers, edges are taken from the parent, never recomputed from
  the block's own bounds, whose floating-point rounding could differ by an
  ulp and leak into every kernel coefficient), names the ghost layers
  (``ghost``: one per decomposed axis) and restricts parent-shaped arrays
  to its cells, so anything global — the Poisson solve, the external
  drive's coefficients — is computed on ``parent`` and cut down;
* :func:`fill_padded` fills those ghost layers from the globally-shaped
  arrays.  With the cell-major layout the configuration axes lead every
  state array, so a halo slab is a contiguous span of memory (for a slab
  decomposition a single ``memcpy``-shaped block transfer), and the block
  interior of a 1-axis decomposition is itself a contiguous view.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..grid.cartesian import Grid

__all__ = ["BlockGrid", "fill_padded"]


class BlockGrid(Grid):
    """A contiguous sub-block of a parent grid with bitwise-parent geometry.

    ``dx``, ``centers``, ``edges`` and ``cell_center`` delegate to the
    parent so a solver built on the block sees exactly the numbers the
    serial solver sees — the block's own ``lower``/``upper`` (kept for
    repr/validation only) are never used in kernel arithmetic.  ``ghost``
    is the number of neighbour-cell layers per axis that arrays handed to
    the block's solvers carry (:attr:`ShardPlan.pad
    <repro.dist.plan.ShardPlan>`; none by default).
    """

    def __init__(
        self,
        parent: Grid,
        ranges: Sequence[Tuple[int, int]],
        ghost: Optional[Sequence[int]] = None,
    ):
        ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        if len(ranges) != parent.ndim:
            raise ValueError(
                f"need one (lo, hi) range per dimension ({parent.ndim}), got {len(ranges)}"
            )
        for d, (lo, hi) in enumerate(ranges):
            if not 0 <= lo < hi <= parent.cells[d]:
                raise ValueError(f"axis {d}: range {(lo, hi)} outside {parent.cells[d]} cells")
        ghost = (0,) * parent.ndim if ghost is None else tuple(int(g) for g in ghost)
        if len(ghost) != parent.ndim or any(g not in (0, 1) for g in ghost):
            raise ValueError(
                f"need one ghost width (0 or 1) per dimension ({parent.ndim}), got {ghost}"
            )
        dx = parent.dx
        Grid.__init__(
            self,
            [parent.lower[d] + lo * dx[d] for d, (lo, _) in enumerate(ranges)],
            [parent.lower[d] + hi * dx[d] for d, (_, hi) in enumerate(ranges)],
            [hi - lo for lo, hi in ranges],
        )
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_ghost", ghost)
        object.__setattr__(self, "ranges", tuple(ranges))

    @property
    def parent(self) -> Grid:
        return self._parent

    @property
    def ghost(self) -> Tuple[int, ...]:
        return self._ghost

    def restrict(self, arr: np.ndarray) -> np.ndarray:
        return arr[tuple(slice(lo, hi) for lo, hi in self.ranges)]

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
            self.ghost + (0,) * other.ndim,
        )


# --------------------------------------------------------------------- #
def fill_padded(
    shared: np.ndarray,
    pad_buf: np.ndarray,
    ranges: Sequence[Tuple[int, int]],
    pad: Sequence[int],
    conf_cells: Sequence[int],
) -> Tuple[int, int]:
    """Copy a shard's block (+ periodic ghost layers) from a globally-shaped
    array into its padded private buffer.

    Cell-major layout: the configuration axes *lead* every state array
    (distribution and EM alike), so the slices below address leading axes
    and each ghost slab is a contiguous span of the shared segment.
    Returns the halo traffic, ``(ghost slabs, their doubles)``: the
    interior copy is a node-local load that a real MPI run would not send.
    """
    cdim = len(ranges)
    interior = tuple(
        slice(p, p + hi - lo) for (lo, hi), p in zip(ranges, pad)
    )
    own = tuple(slice(lo, hi) for lo, hi in ranges)
    pad_buf[interior] = shared[own]
    messages = doubles = 0
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
            messages += 1
            doubles += ghost.size
    return messages, doubles
