"""The faces of one phase direction, as a table over trace-buffer slots.

The solvers' surface terms run trace → flux → lift: every cell's two face
traces per direction sit in ``Nf``-row *slots* of a cell-major trace buffer,
and the flux through a face is computed from the two slots that meet there
and written back to both.  *Which* slots meet — the periodic neighbour on a
whole grid, a ghost cell's trace on a ``process:N`` block, the next velocity
cell inside one configuration cell — is the only thing that differs between
those cases, so it is data: a :class:`FaceMap`, built and checked once by
the solver and consumed by
:meth:`repro.engine.plan.ExecutionPlan.apply_faces` (the compiled
``face_flux`` kernel trusts the table exactly as the sweep trusts a checked
CSR pattern).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["FaceMap"]


def _cells_index(cells: np.ndarray, count: int):
    """``cells`` as a first-axis index: a slice (a view, no gather) when it
    names every one of ``count`` cells in order."""
    if cells.size == count and np.array_equal(cells, np.arange(count)):
        return slice(None)
    return cells


class FaceMap:
    """The faces of one phase direction as slots of cell-major trace
    buffers — the argument of :meth:`ExecutionPlan.apply_faces`.

    A trace buffer is ``(*cells, nrows, *vel_cells)``; the direction owns
    two ``nf``-row slots of every cell: the cell's trace on its upper face
    from row ``slots[0]``, on its lower face from row ``slots[1]``.  The flux
    through a face is computed from the upper-face trace of the cell below it
    (``A``) and the lower-face trace of the cell above it (``B``) and
    replaces both.

    Parameters
    ----------
    table:
        ``(nfaces, 5)`` integers, one row per face: ``data, A, B, up, dn`` —
        the ``dst`` configuration cell whose field coefficients the flux
        uses, the ``src`` cells holding ``A`` and ``B``, and the ``dst``
        cells whose upper / lower slot receive the flux (``-1``: none, a
        neighbour outside ``dst``).  Flattened (C-order) cell indices.
    src_shape, dst_shape:
        Shapes of the buffers read and written; they differ in their
        leading ``cdim`` cell axes only (a ghosted block reads more cells
        than it owns).
    cdim:
        Number of leading cell axes.
    slots:
        First rows ``(up, dn)`` of the two slots.
    nf:
        Face modes per slot.
    upwind:
        Streaming direction: the weights ``(wa, wb)`` of the face state
        ``A * wa + B * wb``, broadcastable to the velocity cells.
    vaxis:
        Acceleration direction: the velocity axis the faces are normal to.
        One table row then stands for all the velocity faces of one
        configuration cell (``A == B``, ``up == dn``): face ``v`` lies
        between velocity cells ``v`` and ``v + 1`` along the axis, its
        state is ``A[v] + B[v + 1]``, and the domain-boundary faces carry
        zero.

    Exactly one of ``upwind`` / ``vaxis`` is given.  Everything the compiled
    kernel will trust is checked here, once (``ValueError``).
    """

    def __init__(
        self,
        table,
        src_shape: Tuple[int, ...],
        dst_shape: Tuple[int, ...],
        cdim: int,
        slots: Tuple[int, int],
        nf: int,
        upwind: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        vaxis: Optional[int] = None,
    ):
        self.src_shape, self.dst_shape = tuple(src_shape), tuple(dst_shape)
        self.table = table = np.ascontiguousarray(table, dtype=np.int64)
        self.up, self.dn = (int(row) for row in slots)
        self.nf = int(nf)
        if (
            len(self.src_shape) <= cdim
            or len(self.dst_shape) != len(self.src_shape)
            or self.src_shape[cdim:] != self.dst_shape[cdim:]
        ):
            raise ValueError(
                f"trace buffers {self.src_shape} -> {self.dst_shape} must "
                f"differ in their {cdim} leading cell axes only"
            )
        self.cell_shape = self.dst_shape[:cdim] + self.dst_shape[cdim + 1 :]
        vel_shape = self.dst_shape[cdim + 1 :]
        self.nrows = self.dst_shape[cdim]
        self.nvel = int(np.prod(vel_shape))
        self.src_cells = int(np.prod(self.src_shape[:cdim]))
        self.dst_cells = int(np.prod(self.dst_shape[:cdim]))
        if table.ndim != 2 or table.shape[1] != 5:
            raise ValueError(f"face table must be (nfaces, 5), got {table.shape}")
        self.nfaces = table.shape[0]
        for row in (self.up, self.dn):
            if row < 0 or row + self.nf > self.nrows:
                raise ValueError(
                    f"slot rows [{row}, {row + self.nf}) leave the "
                    f"{self.nrows} rows of the trace buffer"
                )
        if abs(self.up - self.dn) < self.nf:
            raise ValueError("the upper and lower slot overlap")
        data, a, b, up, dn = table.T
        if self.nfaces and (
            min(data.min(), a.min(), b.min()) < 0
            or max(a.max(), b.max()) >= self.src_cells
            or max(data.max(), up.max(), dn.max()) >= self.dst_cells
        ):
            raise ValueError("face table names a cell outside its buffer")
        for name, col in (("upper", up), ("lower", dn)):
            written = col[col >= 0]
            if np.unique(written).size != written.size:
                raise ValueError(f"two faces write the same {name} slot")
        #: each face writes exactly the two slots it reads: ``dst`` may be
        #: ``src``
        self.in_place = np.array_equal(a, up) and np.array_equal(b, dn)
        if (upwind is None) == (vaxis is None):
            raise ValueError("give either upwind weights or a velocity axis")
        if upwind is not None:
            self.wa, self.wb = (
                np.ascontiguousarray(np.broadcast_to(w, vel_shape), dtype=float).reshape(-1)
                for w in upwind
            )
            self.shift = self.extent = 0
        else:
            if not 0 <= vaxis < len(vel_shape):
                raise ValueError(f"no velocity axis {vaxis} in {vel_shape}")
            if not (np.array_equal(a, b) and np.array_equal(up, dn)):
                raise ValueError(
                    "velocity faces lie inside one configuration cell "
                    "(A == B and up == dn)"
                )
            self.wa = self.wb = None
            self.extent = int(vel_shape[vaxis])
            self.shift = int(np.prod(vel_shape[vaxis + 1 :]))
        # the numpy tier's gather / scatter indices, and its sweep rounds:
        # faces whose data cells are distinct go through the plan's
        # block-diagonal expansion together
        self.a_index = _cells_index(a, self.src_cells)
        self.b_index = _cells_index(b, self.src_cells)
        self.writes = [
            (row, _cells_index(col[col >= 0], self.dst_cells),
             _cells_index(np.flatnonzero(col >= 0), self.nfaces))
            for row, col in ((self.up, up), (self.dn, dn))
        ]
        order = np.argsort(data, kind="stable")
        rank = np.empty(self.nfaces, dtype=np.int64)
        rank[order] = np.arange(self.nfaces) - np.searchsorted(data[order], data[order])
        self.rounds = [
            (_cells_index(faces, self.nfaces), _cells_index(data[faces], self.dst_cells))
            for faces in (np.flatnonzero(rank == r) for r in range(int(rank.max(initial=-1)) + 1))
        ]
