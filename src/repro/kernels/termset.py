"""Runtime representation of CAS-generated DG update kernels.

A generated kernel is a short list of *terms*: each term pairs a **symbol
product** (names of runtime quantities such as ``2/dx``, cell-center
velocity, or a modal field coefficient) with a sparse ``(nout, nin)``
coefficient matrix whose entries were integrated exactly at generation time.
Applying the kernel evaluates

.. math::

   \\text{out}[l] \\mathrel{+}= \\sum_t \\Big(\\prod_{s \\in \\text{sym}_t}
       \\text{aux}[s]\\Big) \\; (M_t \\, f)[l]

vectorized over every grid cell at once.  This is the same sparse
contraction :math:`\\sum_{mn} C_{lmn} \\alpha_n f_m` as the paper's unrolled
C++ kernels — the measured cost is proportional to the exact nonzero count,
which is what produces the sub-quadratic scaling of Fig. 2.  An equivalent
fully-unrolled Python source form is available through
:mod:`repro.cas.codegen` for inspection and FLOP counting (Fig. 1); the two
evaluation paths agree to machine precision (see tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

Symbol = Tuple[str, ...]
AuxValue = Union[float, np.ndarray]
# COO entries of one symbol as parallel arrays: rows, columns, coefficients
EntryArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]

__all__ = ["Term", "TermSet", "symbol_value", "merge_termsets", "stack_termsets"]


class CSR:
    """A compressed-sparse-row matrix laid out as scipy lays it out (int32
    ``indptr`` / ``indices``, float ``data``), without scipy."""

    __slots__ = ("indptr", "indices", "data", "shape", "nnz")

    def __init__(self, indptr, indices, data, shape: Tuple[int, int]):
        self.indptr, self.indices, self.data, self.shape = indptr, indices, data, shape
        self.nnz = data.size

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: Tuple[int, int]) -> "CSR":
        """Rows in order, columns ascending within a row; entries sharing a
        slot add left to right in entry order (stable sort)."""
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        new = np.ones(rows.size, dtype=bool)
        new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(new)
        data = vals[starts]
        run = np.diff(np.append(starts, rows.size))
        for k in range(1, int(run.max(initial=1))):
            more = run > k
            data[more] += vals[starts[more] + k]
        indptr = np.zeros(shape[0] + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[starts], minlength=shape[0]), out=indptr[1:])
        return cls(indptr, cols[starts].astype(np.int32), data, shape)


_csr_matvecs = None


def csr_accumulate(mat: CSR, data: np.ndarray, x2: np.ndarray, y2: np.ndarray):
    """``y2 += csr(mat.indptr, mat.indices, data) @ x2`` without temporaries,
    through scipy's own csr kernel (imported on first use: the compiled
    sweep never gets here).

    ``x2``/``y2`` must be C-contiguous 2-D blocks.
    """
    global _csr_matvecs
    if _csr_matvecs is None:
        from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
    nrow, ncol = mat.shape
    _csr_matvecs(
        nrow, ncol, x2.shape[1], mat.indptr, mat.indices, data, x2.reshape(-1), y2.reshape(-1)
    )


def symbol_value(aux: Dict[str, AuxValue], sym: Symbol):
    """Product of the aux factors named by ``sym`` (1.0 for the empty tuple)."""
    val: AuxValue = 1.0
    for name in sym:
        val = val * aux[name]
    return val


@dataclass
class Term:
    """One symbol-product / sparse-matrix pair of a kernel."""

    sym: Symbol
    matrix: CSR                    # (nout, ncols) restricted to active columns
    cols: np.ndarray               # active input rows (columns of the full matrix)


class TermSet:
    """A generated kernel: a list of terms plus shape metadata.

    Parameters
    ----------
    nout, nin:
        Number of output and input modal coefficients.
    entries:
        COO triples grouped by symbol:
        ``{sym: [(l, m, coeff), ...]}``.

    Entries are stored as parallel ``(rows, cols, coeffs)`` arrays per symbol
    (:meth:`from_arrays` takes them directly); a symbol's entry order is kept,
    since plan digests hash it.  Entries repeating a symbol's ``(l, m)`` slot
    add left to right in that order: ``(c0 + c1) + c2``.
    """

    def __init__(self, nout: int, nin: int, entries: Dict[Symbol, List[Tuple[int, int, float]]]):
        chunks = {sym: [tuple(zip(*t))] for sym, t in entries.items() if len(t)}
        self._set(nout, nin, chunks)

    @classmethod
    def from_arrays(
        cls, nout: int, nin: int, chunks: Dict[Symbol, List[EntryArrays]]
    ) -> "TermSet":
        """Build from ``{sym: [(rows, cols, coeffs), ...]}`` array chunks; a
        symbol's chunks are concatenated in order.  Equivalent to passing the
        same entries as triples, without the per-entry Python round trip."""
        self = cls.__new__(cls)
        self._set(nout, nin, chunks)
        return self

    def _set(self, nout: int, nin: int, chunks: Dict[Symbol, List[EntryArrays]]) -> None:
        self.nout = int(nout)
        self.nin = int(nin)
        self.terms: List[Term] = []
        self._arrays: Dict[Symbol, EntryArrays] = {}
        for sym, parts in chunks.items():
            rows, cols, vals = (np.concatenate(a) for a in zip(*parts))
            if rows.size:
                self._arrays[sym] = (
                    rows.astype(np.int64, copy=False),
                    cols.astype(np.int64, copy=False),
                    vals.astype(float, copy=False),
                )
        for sym in sorted(self._arrays):
            rows, cols, vals = self._arrays[sym]
            active, cols_r = np.unique(cols, return_inverse=True)
            mat = CSR.from_coo(rows, cols_r, vals, (self.nout, active.size))
            self.terms.append(Term(sym=sym, matrix=mat, cols=active))

    # ------------------------------------------------------------------ #
    @property
    def num_entries(self) -> int:
        """Total exact-nonzero tensor entries (the paper's sparsity measure)."""
        return sum(t.matrix.nnz for t in self.terms)

    def entries_by_symbol(self) -> Dict[Symbol, List[Tuple[int, int, float]]]:
        """COO triples keyed by symbol (for code generation / inspection)."""
        return {
            sym: list(zip(rows.tolist(), cols.tolist(), vals.tolist()))
            for sym, (rows, cols, vals) in self._arrays.items()
        }

    def scaled(self, factor: float) -> "TermSet":
        """A copy with every coefficient multiplied by ``factor`` (folds
        constant flux weights into the generated entries)."""
        return TermSet.from_arrays(
            self.nout,
            self.nin,
            {
                sym: [(rows, cols, vals * factor)]
                for sym, (rows, cols, vals) in self._arrays.items()
            },
        )

    def transposed(self) -> "TermSet":
        """The kernel of the transposed matrices, symbol by symbol."""
        return TermSet.from_arrays(
            self.nin,
            self.nout,
            {
                sym: [(cols, rows, vals)]
                for sym, (rows, cols, vals) in self._arrays.items()
            },
        )

    # ------------------------------------------------------------------ #
    def apply(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        scale: float = 1.0,
    ) -> np.ndarray:
        """Accumulate the kernel action into ``out``.

        Parameters
        ----------
        fin:
            Input coefficients, shape ``(nin, *cells)``; the cell axes may be
            any shape, and aux arrays must broadcast against it.
        aux:
            Runtime symbol values (floats or broadcastable arrays).
        out:
            Output accumulator, shape ``(nout, *cells)`` (modified in place).
        scale:
            Overall factor (e.g. -1 for a right-hand-side sign).
        """
        cell_shape = fin.shape[1:]
        ncells = int(np.prod(cell_shape)) if cell_shape else 1
        out2 = out.reshape(self.nout, ncells)
        for term in self.terms:
            val = symbol_value(aux, term.sym)
            g = fin[term.cols] * val
            if scale != 1.0:
                g = g * scale
            g2 = np.ascontiguousarray(g.reshape(term.cols.size, ncells))
            # the product into zeros, then one add: scipy's ``@`` order
            tmp = np.zeros((self.nout, ncells))
            csr_accumulate(term.matrix, term.matrix.data, g2, tmp)
            out2 += tmp
        return out

    def apply_cm(
        self,
        fin: np.ndarray,
        aux: Dict[str, AuxValue],
        out: np.ndarray,
        cdim: int,
        scale: float = 1.0,
    ) -> np.ndarray:
        """Accumulate the kernel action on **cell-major** state.

        ``fin`` is ``(*cfg_cells, nin, *vel_cells)`` (any strides), ``out``
        is ``(*cfg_cells, nout, *vel_cells)`` and must be C-contiguous; aux
        arrays broadcast over the ``(*cfg, *vel)`` cell axes exactly as in
        :meth:`apply` (no basis axis — it is inserted here).  The per-cell
        contraction is the same csr kernel as the mode-major path, applied
        per configuration cell, so per-element results are bit-identical.
        """
        cfg_shape = fin.shape[:cdim]
        vel_shape = fin.shape[cdim + 1 :]
        pdim = cdim + len(vel_shape)
        ncfg = int(np.prod(cfg_shape)) if cfg_shape else 1
        nvel = int(np.prod(vel_shape)) if vel_shape else 1
        out3 = out.reshape(ncfg, self.nout, nvel)
        lead = (slice(None),) * cdim
        for term in self.terms:
            val = symbol_value(aux, term.sym)
            if isinstance(val, np.ndarray) and val.ndim:
                if val.ndim != pdim:
                    raise ValueError(
                        f"aux value for {term.sym} has ndim {val.ndim}, "
                        f"expected the {pdim} cell axes"
                    )
                val = val.reshape(val.shape[:cdim] + (1,) + val.shape[cdim:])
            # the product materializes a fresh contiguous cell-major array,
            # so strided fin views (face slices, ghost windows) need no
            # up-front copy
            g = fin[lead + (term.cols,)] * val
            if scale != 1.0:
                g *= scale
            g3 = g.reshape(ncfg, term.cols.size, nvel)
            mat = term.matrix
            for c in range(ncfg):
                csr_accumulate(mat, mat.data, g3[c], out3[c])
        return out


def merge_termsets(termsets: List["TermSet"]) -> "TermSet":
    """The sum of several kernels with identical shapes as one kernel.

    Entries sharing a symbol and an ``(l, m)`` slot add, so applying the
    merged kernel equals applying each input in turn — in one pass over the
    state instead of one per kernel.
    """
    if not termsets:
        raise ValueError("need at least one termset")
    nout, nin = termsets[0].nout, termsets[0].nin
    chunks: Dict[Symbol, List[EntryArrays]] = {}
    for ts in termsets:
        if (ts.nout, ts.nin) != (nout, nin):
            raise ValueError("merge requires identical (nout, nin)")
        for sym, arrays in ts._arrays.items():
            chunks.setdefault(sym, []).append(arrays)
    return TermSet.from_arrays(nout, nin, chunks)


def stack_termsets(termsets: List["TermSet"]) -> "TermSet":
    """A kernel computing the row-concatenation of several kernels' outputs.

    All inputs must share ``nin``; output slot ``sum(nout_before) + l`` of
    the stacked kernel is slot ``l`` of the corresponding input.  Used to
    evaluate the left- and right-cell face increments of one state in a
    single (taller) batched product.
    """
    if not termsets:
        raise ValueError("need at least one termset")
    nin = termsets[0].nin
    chunks: Dict[Symbol, List[EntryArrays]] = {}
    offset = 0
    for ts in termsets:
        if ts.nin != nin:
            raise ValueError("stack requires identical nin")
        for sym, (rows, cols, vals) in ts._arrays.items():
            chunks.setdefault(sym, []).append((rows + offset, cols, vals))
        offset += ts.nout
    return TermSet.from_arrays(offset, nin, chunks)
