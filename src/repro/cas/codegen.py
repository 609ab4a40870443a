"""Emission of fully-unrolled and fused kernel source code (the paper's Fig. 1).

Gkeyll's Maxima scripts write each generated kernel as unrolled C++ with all
integrals baked in at double precision, loops unrolled and common symbol
products pulled out.  This module does the same in Python, at two levels:

* :func:`emit_kernel_source` turns a
  :class:`~repro.kernels.termset.TermSet` into the source of a standalone
  unrolled function ``kernel(f, aux, out)`` — a flat list of fused
  multiply–add statements, used for inspection (reproducing Fig. 1),
  exact multiplication counting (the "~70 vs ~250 multiplications" claim),
  and agreement tests against the sparse-operator path.  With ``cdim > 0``
  the emitted indexing targets the engine's cell-major layout
  ``(*cfg_cells, N, *vel_cells)`` directly (``f[:, :, m]``), so the same
  unrolled source applies to batched state arrays, not just per-cell
  coefficient vectors.
* :data:`FUSED_SWEEP_C` is the executor's compiled form: one C sweep over
  the per-cell sparse groups an :class:`~repro.engine.plan.ExecutionPlan`
  freezes, with eight entry points: four over one loop body —
  ``fused_sweep`` (state in, state out), ``face_flux`` (the same groups
  across the faces of one direction: two trace slots in, both overwritten
  with the flux), ``cell_rhs`` (a
  :class:`~repro.engine.program.CellProgram`: per configuration cell, a
  table of sweeps and velocity-face fluxes on cell-local blocks, optionally
  the Shu–Osher stage) and ``moments`` (per configuration cell, several
  plans' sweeps, each row summed over the velocity cells in numpy's order:
  :class:`~repro.moments.MomentCalculator`) — ``form_entries``, the
  per-cell sweep entries of a plan run on its own, ``project_accumulate``,
  the quadrature sum of the initial-condition projection
  (:mod:`repro.projection`), ``weak_primitive``, the LBO's per-cell weak
  division (:mod:`repro.moments.weak_ops`), and ``poisson_1d``, the 1-D
  field solve (:mod:`repro.fields.poisson`).  The first four and the
  projection split their loop over configuration cells (faces) across the CPUs
  the process may run on, with threads started and joined inside each call
  (:func:`cell_threads` decides how many; one in a forked child).  Its
  source is a constant — shapes, the ``accumulate`` flag, the group and face
  tables are arguments — so nothing is emitted per plan:
  :func:`compile_fused_sweep` shells out to the system C compiler once per
  toolchain and target (``-O3 -ffp-contract=off -march=native``: no FMA
  contraction and no reassociation, so results stay bit-identical to
  scipy's ``csr_matvecs`` over the same groups at any vector width; the
  ISA flag is dropped once if the compiler rejects it), loads the shared
  object through :mod:`ctypes` once per process, and keys the artifact by
  a content digest of the source, the flags, the compiler file's identity
  (:func:`cc_available`, which runs nothing) and the host's resolved
  target, so repeated runs — and sibling worker processes — reuse the
  compiled kernel without recompiling or starting a child, and a host with
  another instruction set sharing the cache directory never loads it.  Without a
  compiler (or under ``$REPRO_KERNEL_TIER=numpy``, :func:`select_tier`) the
  plan runs the scipy sweep instead (the only tier that imports scipy): two
  sweep kernels, picked by what the process can observe.  A build that
  fails is reported (one ``RuntimeWarning``, counted by the engine as
  ``kernels_failed``) and degrades the same way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import warnings
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from ..io.atomic import publish, publish_text
from ..obs import OBS

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at runtime
    from ..kernels.termset import Symbol, TermSet

__all__ = [
    "emit_kernel_source",
    "compile_kernel",
    "count_multiplications",
    "FUSED_SWEEP_C",
    "FUSED_SWEEP_ARGTYPES",
    "FACE_FLUX_ARGTYPES",
    "CELL_RHS_ARGTYPES",
    "PROJECT_ACCUMULATE_ARGTYPES",
    "MOMENTS_ARGTYPES",
    "WEAK_PRIMITIVE_ARGTYPES",
    "FORM_ENTRIES_ARGTYPES",
    "POISSON_1D_ARGTYPES",
    "CC_FLAGS",
    "CC_ISA_FLAG",
    "compile_fused_sweep",
    "cc_available",
    "select_tier",
    "KERNEL_TIERS",
]

#: recognized sparse-sweep tiers: ``cc`` compiles the emitted C through the
#: system compiler, ``numpy`` runs scipy's ``csr_matvecs``, ``auto`` picks
#: ``cc`` when a compiler is present
KERNEL_TIERS = ("auto", "cc", "numpy")


def _format_coeff(value: float) -> str:
    return repr(float(value))


def emit_kernel_source(name: str, termset: "TermSet", cdim: int = 0) -> str:
    """Return the source of an unrolled kernel function.

    The function signature is ``name(f, aux, out)`` where ``f`` is indexable
    by input-coefficient number (rows may be scalars or NumPy arrays), ``aux``
    maps symbol names to values, and ``out`` is accumulated in place.

    ``cdim`` selects the layout the emitted indexing targets: ``0`` (the
    historical form) indexes coefficient-major rows ``f[m]``; a positive
    ``cdim`` emits cell-major indexing ``f[:, ..., m]`` with ``cdim``
    leading slices, so the kernel applies directly to the engine's
    ``(*cfg_cells, N, *vel_cells)`` state arrays with aux factors
    broadcasting over the phase axes exactly as
    :meth:`~repro.kernels.termset.TermSet.apply_cm` does.
    """
    prefix = ":, " * int(cdim)
    lines: List[str] = [
        f"def {name}(f, aux, out):",
        f'    """Auto-generated unrolled DG kernel ({termset.num_entries} exact nonzeros)."""',
    ]
    sym_local: Dict[tuple, str] = {}
    entries = termset.entries_by_symbol()
    for t, sym in enumerate(sorted(entries)):
        if sym:
            sym_local[sym] = f"s{t}"
            expr = "*".join(f"aux[{n!r}]" for n in sym)
            lines.append(f"    s{t} = {expr}")
    per_row: Dict[int, List[str]] = defaultdict(list)
    for sym in sorted(entries):
        local = sym_local.get(sym)
        for l, m, coeff in entries[sym]:
            piece = f"{_format_coeff(coeff)}*f[{prefix}{m}]"
            if local is not None:
                piece = f"{local}*" + piece
            per_row[l].append(piece)
    if not per_row:
        lines.append("    pass")
    for l in sorted(per_row):
        joined = " + ".join(per_row[l]).replace("+ -", "- ")
        lines.append(f"    out[{prefix}{l}] += {joined}")
    return "\n".join(lines) + "\n"


def compile_kernel(name: str, termset: "TermSet", cdim: int = 0):
    """Compile the emitted source and return the kernel function object."""
    source = emit_kernel_source(name, termset, cdim=cdim)
    namespace: Dict[str, object] = {}
    exec(compile(source, f"<generated:{name}>", "exec"), namespace)
    fn = namespace[name]
    fn.__source__ = source  # type: ignore[attr-defined]
    return fn


def count_multiplications(termset: "TermSet") -> int:
    """Number of scalar multiplications one evaluation of the unrolled kernel
    performs (the metric quoted for Fig. 1).

    Each symbol product of ``k`` factors costs ``k - 1`` multiplies (hoisted
    once); each tensor entry then costs 2 multiplies (coefficient times the
    hoisted symbol times ``f[m]``), or 1 when there is no symbol.
    """
    total = 0
    for sym, triples in termset.entries_by_symbol().items():
        if sym:
            total += len(sym) - 1
            total += 2 * len(triples)
        else:
            total += len(triples)
    return total


# --------------------------------------------------------------------- #
# the compiled sweep kernel (the cc tier)


_CC = None  # cached (compiler path, file identity) or False


def cc_available() -> Optional[Tuple[str, str]]:
    """The system C compiler as ``(path, file identity)``, or None.

    Resolved once per process without running anything: the first of
    ``$CC``, ``cc``, ``gcc``, ``clang`` on ``PATH``, followed through its
    links to the file it runs and identified by that file's path, size,
    modification time and inode.  The identity participates in the kernel
    artifact digest, so a replaced toolchain recompiles, and a process that
    finds its shared object starts no child process.
    """
    global _CC
    if _CC is None:
        _CC = False
        for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
            path = shutil.which(cand) if cand else None
            if path is None:
                continue
            real = os.path.realpath(path)
            try:
                st = os.stat(real)
            except OSError:
                continue
            _CC = (path, f"{real} {st.st_size} {st.st_mtime_ns} {st.st_ino}")
            break
    return _CC or None


def select_tier(tier: str = "auto") -> str:
    """Resolve a tier request (``auto``/``cc``/``numpy``) to the sweep
    kernel that will actually run.

    An explicit ``cc``/``numpy`` argument wins; ``$REPRO_KERNEL_TIER``
    replaces only ``auto`` (it is how CI exercises the compiler-less
    platform on a box that has a compiler).  ``cc`` without a compiler
    degrades to ``numpy`` — always available, never an error.
    """
    if tier == "auto":
        tier = os.environ.get("REPRO_KERNEL_TIER") or "auto"
    if tier not in KERNEL_TIERS:
        raise ValueError(
            f"unknown kernel tier {tier!r} (known: {', '.join(KERNEL_TIERS)})"
        )
    if tier == "numpy" or not cc_available():
        return "numpy"
    return "cc"


#: C source of the sweep kernels — a constant: every shape is an argument, so
#: one shared object per toolchain and target ISA serves every plan.  It has
#: eight entry points: four over one group-table format and ``form_entries``
#: over its form records, the projection's accumulate, the LBO's weak
#: division and the 1-D Poisson solve.
#:
#: *Threads.*  ``fused_sweep``, ``face_flux``, ``cell_rhs``, ``moments``
#: and ``project_accumulate`` take a trailing ``nthreads``
#: (:func:`cell_threads` picks it when the call is bound) and split their
#: outer loop — configuration cells for ``fused_sweep``,
#: ``cell_rhs``, ``moments`` and ``project_accumulate``, face rows for
#: ``face_flux`` — into ``nthreads``
#: contiguous ranges (at most one per cell or face; ``run_split``).  Range
#: 0 runs on the calling thread, every other range on a thread started for
#: this call (on the caller, should one fail to start), and all are joined
#: before the call returns.  The bits cannot move: every output element is
#: still made by one thread, in its one-thread float sequence, and no range
#: reads what another writes — a sweep cell writes only its own output
#: cell, a face only its own two slots (``FaceMap.in_place``), a program
#: cell only its own output, its own row of each per-cell entry table and
#: its thread's scratch, reading the state and
#: the streaming buffer finished before the call, a moment cell only its
#: own output rows and its thread's row buffer, a projection cell only its
#: own output rows.  No thread outlives a call, so a fork (a
#: ``process:N`` shard, a serve worker) inherits none — nothing to rebuild
#: after it, unlike a persistent pool (OpenMP's hangs in a forked child).
#:
#: ``groups`` is an ``(ngroups, 5)`` int64 table: per group the address of
#: its entries, the stride in doubles between configuration cells' entry
#: rows (0: one row shared by every cell), the addresses of the per-cell CSR
#: ``indptr`` / ``indices`` (int64) and of the flattened ``(nvel,)`` velocity
#: factor (0: unweighted; the factor's own memory where it is a contiguous
#: ``vel_shape`` array, else a copy the plan re-gathers before each call).
#:
#: *Per-cell entries.*  A group with configuration-varying factors has one
#: entry row per configuration cell, ``d[c] = sum_t coef_t * s_t`` over the
#: ``nterms`` rows ``s_t`` of its term stack, described by an int64 *form
#: record*: the address of the entries, ``nnz``, ``nterms``, the addresses
#: of the ``(nterms, nnz)`` stack and of the ``(nterms,)`` scalar products
#: ``scal``; then per term its row count ``nr`` and ``nr`` pairs (address,
#: stride in doubles) of its ``(ncfg,)`` configuration rows.
#: ``form_range`` writes rows ``[lo, hi)``, per row ``coef_t = row_0[c] * scal_t``, times each further row
#: in order, then ``d[c, k] = coef_0 * s_0[k]`` and ``d[c, k] = d[c, k] +
#: coef_t * s_t[k]`` term after term — the float sequence of
#: ``ExecutionPlan``'s numpy form, so both tiers sweep the same entries.
#: ``form_entries(nform, forms, ncfg)`` runs it for every cell of the
#: ``nform`` records whose addresses ``forms`` lists (a plan run on its
#: own); ``cell_rhs`` runs it over each thread's range of cells before
#: their instructions.  The cells go 16 at a time, each register tile of
#: the stack serving all of them: formed one cell at a time, the stack was
#: re-read from cache per cell and the formation ran at a third of the speed
#: of numpy's BLAS product on ``weibel_2x2v`` (2-vCPU x86-64 box).
#:
#: ``fused_sweep(f, y, accumulate, ncfg, nout, nin, nvel, ngroups, groups,
#: nthreads)`` applies the groups to cell-major ``f`` ``(ncfg, nin, nvel)``
#: into ``y`` ``(ncfg, nout, nvel)``.
#:
#: Loop nest (``sweep_span``): configuration cell → tile of velocity cells →
#: output row → accumulators held in registers (four vectors per tile, then
#: one vector, then half-width vectors down to a scalar tail; the vector
#: width follows the compiler's target macros).  The accumulators start at
#: ``+0.0`` (``accumulate == 0``: ``y`` is never read) or are loaded once,
#: take every group's entries of that row in group order and in-row order as
#: ``acc += a * (f * w)``, and are stored once.  Per output element that is
#: the float operation sequence of one ``csr_matvecs`` per group over the
#: weighted state, so with contraction off and no reassociation the bits
#: match the numpy tier whatever the vector width.
#:
#: ``face_flux(src, dst, nfaces, faces, nrows, up, dn, nf, nvel, wa, wb,
#: shift, extent, ngroups, groups, nthreads)`` runs an ``nf x nf`` flux
#: operator (the same group table) over the faces of one phase direction,
#: between the trace slots of cell-major trace buffers ``(cells, nrows,
#: nvel)``: a cell's trace on its upper face sits in rows ``[up, up + nf)``,
#: on its lower face in ``[dn, dn + nf)``.  ``faces`` is an ``(nfaces, 5)``
#: int64 table, one row per face: the configuration cell whose entry rows
#: the flux uses (``c`` above), the ``src`` cell whose upper-face trace is
#: the face's lower state ``A``, the ``src`` cell whose lower-face trace is
#: its upper state ``B``, and the ``dst`` cells whose upper / lower slot
#: receive the flux (``-1``: not written).  Per face and per tile of
#: velocity cells it
#:
#: 1. loads the face state into a stack tile: ``x = A * wa + B * wb`` with
#:    the ``(nvel,)`` upwind weights of a streaming direction, or (``wa ==
#:    0``: an acceleration direction along the velocity axis with stride
#:    ``shift`` and ``extent`` cells in the flattened velocity index) ``x =
#:    A[v] + B[v + shift]`` on interior faces and ``+0.0`` on the upper
#:    domain boundary;
#: 2. sweeps the groups over the tile with ``sweep_span`` from ``+0.0`` —
#:    the element sequence of ``fused_sweep``;
#: 3. stores each row to the upper slot at ``v`` and to the lower slot at
#:    ``v`` (streaming) or ``v + shift`` (acceleration, where the lower
#:    slot's entries on the lower domain boundary are written ``0.0``).
#:
#: *No out-of-bounds access:* ``B[v + shift]`` is read and the lower slot
#: written at ``v + shift`` only where ``v``'s index along the axis is below
#: ``extent - 1``, so ``v + shift < nvel``; cell indices are trusted exactly
#: as ``indptr`` / ``indices`` are (the caller bounds-checks the table once).
#: *In place:* a tile reads all its inputs before it stores, and the
#: elements it reads — ``A`` at ``v``, ``B`` at ``v`` or ``v + shift`` — are
#: the ones it stores; the only other store, the zero at index 0 of the
#: axis, is never read as a ``B``.  So when every face's two destination
#: slots are its own two source slots and no slot belongs to two faces,
#: each face owns its two slots and ``dst`` may be ``src``.
#:
#: ``cell_rhs(f, held, out, ncfg, np, nvel, stream, ns, block, bs, nins, ins,
#: consts, staged, sa, sb, dt, u0, target, nform, forms, nthreads)`` runs a
#: :class:`~repro.engine.program.CellProgram`: the entries of the ``nform``
#: form records ``forms`` lists (the table plans' per-cell groups; the
#: thread that owns cell ``c`` writes their row ``c``, for its range of cells
#: before their instructions), then per configuration cell one instruction
#: table, over the loop bodies of the other two entry points
#: (``sweep_span``, ``face_span``).  ``f`` is the cell-major state handed in
#: (``held[c]`` its index of own cell ``c``, or no table: ``c``), ``stream``
#: the ``(ncfg, ns, nvel)`` buffer already holding the *streaming* face
#: fluxes of every own cell, ``block`` one ``(rows, nvel)`` scratch per
#: thread, ``bs`` doubles apart.  ``ins`` is ``nins`` rows of 8 int64, run
#: in order on every cell ``c``; a block
#: is named by a row of ``block`` (``>= 0``) or by ``-1`` / ``-2`` / ``-3``:
#: ``f[c]``, ``stream[c]``, the output cell (neither of the first two is
#: written):
#:
#: * ``0`` *sweep* ``src, dst, accumulate, nout, ngroups, groups`` — the
#:   group table over the cell, ``fused_sweep`` on one configuration cell;
#: * ``1`` *faces* ``up, dn, nf, shift, extent, ngroups, groups`` —
#:   ``face_span`` in place on the trace slots at block rows ``up`` / ``dn``
#:   (``face_flux`` on a one-cell trace buffer);
#: * ``2`` *scale* ``at, rows, k`` — ``x = x * consts[k]``;
#: * ``3`` *subtract* ``dst, src, rows`` — ``y = y - x``.
#:
#: Per output element this is the float sequence of the same instructions
#: run as state-sized passes (a store and a reload between two sweeps
#: change no bits).  Then, ``staged == 0``: the output cell is ``out[c]``.
#: Otherwise ``out`` is one ``(np, nvel)`` cell of scratch per thread
#: holding ``L``, and the Shu–Osher stage is applied on the way out, in the
#: association of ``repro.timestepping.ssprk``: ``target[c] = f[c] + L *
#: dt`` (``staged == 1``) or ``target[c] = (f[c] + L * dt) * sb + u0[c] *
#: sa``.
#:
#: *In place:* ``target`` may be ``f`` — the streaming traces, the only
#: reads that cross configuration cells, were taken before the call, and
#: cell ``c`` is written after its last read.
#:
#: ``project_accumulate(nq, np, ncfg, nvel, C, V, out, nthreads)`` adds one
#: block of ``nq`` quadrature points into the projection ``out`` ``(ncfg,
#: np, nvel)``: ``C`` is the block's ``(np, nq)`` columns of ``wts * vander``,
#: ``V`` the integrand at its points, ``(nq, ncfg, nvel)``.  Per
#: configuration cell ``c``, mode ``k`` and tile of velocity cells it loads
#: the output into registers (``sweep_span``'s tiles), adds the points in
#: order, ``o[i] += C[k, q] * v[i]``, and stores it once — per output
#: element the product rounded, then the add, point after point: the float
#: sequence of the per-point numpy loop ``out += (wts[q] * vander[:, q]) *
#: vals``, so with contraction off the bits are that loop's.
#:
#: ``moments(f, out, cs, ms, ncfg, nin, nvel, nmom, table, rows, rs,
#: nthreads)`` reduces ``f`` ``(ncfg, nin, nvel)`` over velocity: ``table``
#: is ``nmom`` rows of 3 int64 — a moment plan's ``nout``, its group count
#: and the address of its group table.  Per configuration cell ``c`` and
#: moment ``j`` it sweeps the groups over the cell into the thread's row
#: buffer (``rows`` + thread × ``rs`` doubles; ``fused_sweep``'s element
#: sequence) and writes each row's sum to ``out[c * cs + j * ms + r]``:
#: ``+0.0`` plus the row summed as numpy's ``pairwise_sum`` does — fewer
#: than 8 values in order from ``+0.0``; up to 128 into 8 accumulators
#: (``r[t] += a[i + t]``), combined as ``((r0 + r1) + (r2 + r3)) + ((r4 +
#: r5) + (r6 + r7))``, then the tail in order; longer rows split at half
#: the length rounded down to a multiple of 8, the two sums added.  That is
#: the float sequence of ``np.sum`` over the trailing velocity axes of the
#: swept phase-space buffer (its identity ``+0.0`` plus one pairwise
#: reduction per output), so the bits are the numpy tier's.
#:
#: ``weak_primitive(m, cs, ms, prim, ncfg, n, vdim, t)`` is the LBO's weak
#: division: per configuration cell ``c`` (moments ``M0, M1_0 ..,
#: M1_{vdim-1}, M2`` at ``m + c * cs + k * ms``, ``t`` the ``(n, n, n)``
#: triple-product tensor) it forms ``A[l, m] = sum_k t[l, m, k] M0[k]``,
#: factors it by LU with partial pivoting (the first largest magnitude
#: wins, a NaN at once), solves for each ``u_j`` and then for ``vtsq``
#: from ``(M2 - sum_j Proj(u_j M1_j)) / vdim``, and writes them to ``prim``
#: ``(vdim + 1, n, ncfg)``; every sum is sequential from ``+0.0``, in the
#: order of :func:`repro.moments.weak_ops.weak_primitive`, so the bits are
#: that function's.  It returns ``-1``, or the first cell whose pivot is an
#: exact zero (that cell and the later ones are not written).
#:
#: ``poisson_1d(rho, e, q, nx, np, local, weight, edge)`` is
#: :meth:`repro.fields.poisson.Poisson1D.solve`: ``e[i, j] = rho[i, 0] *
#: local[0, j]`` plus ``rho[i, k] * local[k, j]`` for ``k = 1 ..`` in turn;
#: the cell charges ``q[i] = weight * rho[i, 0]``, their sum ``total`` as
#: ``+0.0`` plus numpy's pairwise sum, ``q[i] = q[i] - total / nx``; ``e[i +
#: 1, 0] = e[i + 1, 0] + s_i * edge`` with ``s`` the running sum of ``q``
#: (``np.cumsum``'s sequential order); then ``e[:, 0]`` less its mean (the
#: pairwise sum over ``nx``).  That is the numpy form's float sequence, so
#: the bits are its.  It returns ``total``: the caller refuses a
#: non-neutral charge.
FUSED_SWEEP_C = r"""#include <pthread.h>
#include <stdint.h>

#if defined(__AVX512F__)
#define VLEN 8
#elif defined(__AVX__)
#define VLEN 4
#else
#define VLEN 2
#endif

#define VEC(n) __attribute__((vector_size(n * 8), aligned(8), may_alias))
typedef double vec VEC(VLEN);
typedef double vec4 VEC(4);
typedef double vec2 VEC(2);

/* every output row of the NV * (lanes of T) velocity cells starting at v */
#define SWEEP_ROWS(T, NV)                                                   \
    for (r = 0; r < nout; ++r) {                                            \
        T* yr = (T*)(yc + r * ys + v);                                      \
        T acc[NV], wt[NV];                                                  \
        for (t = 0; t < NV; ++t)                                            \
            acc[t] = accumulate ? yr[t] : (T){0};                           \
        for (g = 0; g < ngroups; ++g) {                                     \
            const int64_t* grp = groups + 5 * g;                            \
            const double* d = (const double*)(intptr_t)grp[0] + c * grp[1]; \
            const int64_t* p = (const int64_t*)(intptr_t)grp[2];            \
            const int64_t* i = (const int64_t*)(intptr_t)grp[3];            \
            const double* w = (const double*)(intptr_t)grp[4];              \
            if (w) {                                                        \
                for (t = 0; t < NV; ++t)                                    \
                    wt[t] = ((const T*)(w + w0 + v))[t];                    \
                for (k = p[r]; k < p[r + 1]; ++k) {                         \
                    const double a = d[k];                                  \
                    const T* fj = (const T*)(fc + i[k] * fs + v);           \
                    for (t = 0; t < NV; ++t)                                \
                        acc[t] += a * (fj[t] * wt[t]);                      \
                }                                                           \
            } else {                                                        \
                for (k = p[r]; k < p[r + 1]; ++k) {                         \
                    const double a = d[k];                                  \
                    const T* fj = (const T*)(fc + i[k] * fs + v);           \
                    for (t = 0; t < NV; ++t)                                \
                        acc[t] += a * fj[t];                                \
                }                                                           \
            }                                                               \
        }                                                                   \
        for (t = 0; t < NV; ++t)                                            \
            yr[t] = acc[t];                                                 \
    }

/* the groups of configuration cell c over len contiguous velocity cells:
   rows of fc (row stride fs) into rows of yc (row stride ys), the velocity
   factors read from offset w0 */
static inline __attribute__((always_inline)) void
sweep_span(const double* restrict fc, int64_t fs, double* restrict yc,
           int64_t ys, int64_t len, int64_t w0, int64_t c, int64_t accumulate,
           int64_t nout, int64_t ngroups, const int64_t* restrict groups)
{
    int64_t v = 0, r, g, k;
    int t;
    for (; v + 4 * VLEN <= len; v += 4 * VLEN)
        SWEEP_ROWS(vec, 4)
    for (; v + VLEN <= len; v += VLEN)
        SWEEP_ROWS(vec, 1)
#if VLEN > 4
    for (; v + 4 <= len; v += 4)
        SWEEP_ROWS(vec4, 1)
#endif
#if VLEN > 2
    for (; v + 2 <= len; v += 2)
        SWEEP_ROWS(vec2, 1)
#endif
    for (; v < len; ++v)
        SWEEP_ROWS(double, 1)
}

/* the range [lo, hi) of a loop split by run_split, on thread t of the call */
typedef void (*range_fn)(const void* args, int64_t lo, int64_t hi, int64_t t);

typedef struct {
    range_fn run;
    const void* args;
    int64_t lo, hi, t;
} range_job;

static void* run_range(void* job)
{
    const range_job* j = job;
    j->run(j->args, j->lo, j->hi, j->t);
    return 0;
}

/* run over [0, n) as nthreads contiguous ranges (at most n): range 0 on the
   calling thread, range t on a thread started for this call (or, when it
   cannot be started, on the caller after range 0); every thread is joined
   before the call returns, so none outlives it */
static void run_split(range_fn run, const void* args, int64_t n,
                      int64_t nthreads)
{
    int64_t t;
    if (nthreads > n)
        nthreads = n;
    if (nthreads <= 1) {
        run(args, 0, n, 0);
        return;
    }
    range_job job[nthreads];
    pthread_t tid[nthreads];
    int started[nthreads];
    for (t = 0; t < nthreads; ++t)
        job[t] = (range_job){run, args, n * t / nthreads,
                             n * (t + 1) / nthreads, t};
    for (t = 1; t < nthreads; ++t)
        started[t] = pthread_create(tid + t, 0, run_range, job + t) == 0;
    run_range(job);
    for (t = 1; t < nthreads; ++t) {
        if (started[t])
            pthread_join(tid[t], 0);
        else
            run_range(job + t);
    }
}

typedef struct {
    const double* f;
    double* y;
    int64_t accumulate, nout, nin, nvel, ngroups;
    const int64_t* groups;
} sweep_args;

static void sweep_range(const void* args, int64_t lo, int64_t hi, int64_t t)
{
    const sweep_args* a = args;
    const int64_t nvel = a->nvel;
    int64_t c;
    (void)t;
    for (c = lo; c < hi; ++c)
        sweep_span(a->f + c * a->nin * nvel, nvel, a->y + c * a->nout * nvel,
                   nvel, nvel, 0, c, a->accumulate, a->nout, a->ngroups,
                   a->groups);
}

void fused_sweep(const double* f, double* y, int64_t accumulate,
                 int64_t ncfg, int64_t nout, int64_t nin, int64_t nvel,
                 int64_t ngroups, const int64_t* groups, int64_t nthreads)
{
    const sweep_args a = {f, y, accumulate, nout, nin, nvel, ngroups, groups};
    run_split(sweep_range, &a, ncfg, nthreads);
}

#define FACE_TILE (16 * VLEN)

/* one face, every velocity cell: the state from a (the upper-face trace of
   the cell below) and b (the lower-face trace of the cell above), the flux
   of configuration cell c's entries to yu and yd (0: not written) */
static __attribute__((noinline)) void
face_span(const double* a, const double* b, double* yu, double* yd, int64_t c,
          int64_t nf, int64_t nvel, const double* wa, const double* wb,
          int64_t shift, int64_t extent,
          int64_t ngroups, const int64_t* restrict groups)
{
    double xt[nf * FACE_TILE], yt[nf * FACE_TILE];
    /* acceleration: the tile's velocity cells that have an upper neighbour
       along the axis / that are the first along it */
    unsigned char upper[FACE_TILE], first[FACE_TILE];
    int64_t v0, len, m, t;
    for (v0 = 0; v0 < nvel; v0 += FACE_TILE) {
        len = nvel - v0 < FACE_TILE ? nvel - v0 : FACE_TILE;
        if (wa) {
            for (m = 0; m < nf; ++m)
                for (t = 0; t < len; ++t) {
                    const int64_t v = v0 + t, k = m * nvel + v;
                    xt[m * FACE_TILE + t] = a[k] * wa[v] + b[k] * wb[v];
                }
        } else {
            int64_t lo = v0 % shift, at = v0 / shift % extent;
            for (t = 0; t < len; ++t) {
                upper[t] = at < extent - 1;
                first[t] = at == 0;
                if (++lo == shift) {
                    lo = 0;
                    if (++at == extent)
                        at = 0;
                }
            }
            for (m = 0; m < nf; ++m)
                for (t = 0; t < len; ++t) {
                    const int64_t k = m * nvel + v0 + t;
                    xt[m * FACE_TILE + t] =
                        upper[t] ? a[k] + b[k + shift] : 0.0;
                }
        }
        sweep_span(xt, FACE_TILE, yt, FACE_TILE, len, v0, c, 0,
                   nf, ngroups, groups);
        for (m = 0; m < nf; ++m) {
            const double* ym = yt + m * FACE_TILE;
            const int64_t k = m * nvel + v0;
            if (yu)
                for (t = 0; t < len; ++t)
                    yu[k + t] = ym[t];
            if (!yd)
                continue;
            if (wa)
                for (t = 0; t < len; ++t)
                    yd[k + t] = ym[t];
            else
                for (t = 0; t < len; ++t) {
                    if (upper[t])
                        yd[k + t + shift] = ym[t];
                    if (first[t])
                        yd[k + t] = 0.0;
                }
        }
    }
}

typedef struct {
    const double* src;
    double* dst;
    const int64_t* faces;
    int64_t nrows, up, dn, nf, nvel;
    const double *wa, *wb;
    int64_t shift, extent, ngroups;
    const int64_t* groups;
} face_args;

static void face_range(const void* args, int64_t lo, int64_t hi, int64_t t)
{
    const face_args* a = args;
    const int64_t nrows = a->nrows, nvel = a->nvel;
    int64_t n;
    (void)t;
    for (n = lo; n < hi; ++n) {
        const int64_t* face = a->faces + 5 * n;
        face_span(a->src + (face[1] * nrows + a->up) * nvel,
                  a->src + (face[2] * nrows + a->dn) * nvel,
                  face[3] < 0 ? 0 : a->dst + (face[3] * nrows + a->up) * nvel,
                  face[4] < 0 ? 0 : a->dst + (face[4] * nrows + a->dn) * nvel,
                  face[0], a->nf, nvel, a->wa, a->wb, a->shift, a->extent,
                  a->ngroups, a->groups);
    }
}

void face_flux(const double* src, double* dst,
               int64_t nfaces, const int64_t* faces,
               int64_t nrows, int64_t up, int64_t dn, int64_t nf, int64_t nvel,
               const double* wa, const double* wb,
               int64_t shift, int64_t extent,
               int64_t ngroups, const int64_t* groups, int64_t nthreads)
{
    const face_args a = {src, dst, faces, nrows, up, dn, nf, nvel, wa, wb,
                         shift, extent, ngroups, groups};
    run_split(face_range, &a, nfaces, nthreads);
}

/* sweep_span over all nvel velocity cells of one configuration cell, out of
   line: one copy of the loop nest serves every sweep of cell_rhs */
static __attribute__((noinline)) void
sweep_cell(const double* restrict fc, double* restrict yc, int64_t nvel,
           int64_t c, int64_t accumulate, int64_t nout, int64_t ngroups,
           const int64_t* restrict groups)
{
    sweep_span(fc, nvel, yc, nvel, nvel, 0, c, accumulate, nout, ngroups,
               groups);
}

/* NV * (lanes of T) entries from k on of every cell of the chunk, each
   held in registers while the terms are added in order */
#define FORM_TILES(T, NV)                                                   \
    for (i = 0; i < m; ++i) {                                               \
        const double* coef = cf + i * nterms;                               \
        T acc[NV];                                                          \
        for (j = 0; j < NV; ++j)                                            \
            acc[j] = coef[0] * ((const T*)(s + k))[j];                      \
        for (t = 1; t < nterms; ++t)                                        \
            for (j = 0; j < NV; ++j)                                        \
                acc[j] += coef[t] * ((const T*)(s + t * nnz + k))[j];       \
        for (j = 0; j < NV; ++j)                                            \
            ((T*)(d + (c0 + i) * nnz + k))[j] = acc[j];                     \
    }

#define FORM_CHUNK 16

/* the entry rows of configuration cells [lo, hi) of nform per-cell groups,
   each given by its form record: entries, nnz, nterms, term stack,
   per-term scalars, then per term its number of coefficient rows and their
   (address, stride) pairs.  Row c becomes sum_t coef_t * stack_t, the
   first term's product, then the others added in term order; the cells go
   FORM_CHUNK at a time, each tile of the stack serving the whole chunk */
static __attribute__((noinline)) void
form_range(int64_t lo, int64_t hi, int64_t nform, const int64_t* restrict forms)
{
    int64_t g, c0, m, i, t, r, k;
    int j;
    for (g = 0; g < nform; ++g) {
        const int64_t* h = (const int64_t*)(intptr_t)forms[g];
        const int64_t nnz = h[1], nterms = h[2];
        double* restrict d = (double*)(intptr_t)h[0];
        const double* restrict s = (const double*)(intptr_t)h[3];
        const double* scal = (const double*)(intptr_t)h[4];
        double cf[FORM_CHUNK * nterms];
        for (c0 = lo; c0 < hi; c0 += FORM_CHUNK) {
            m = hi - c0 < FORM_CHUNK ? hi - c0 : FORM_CHUNK;
            for (i = 0; i < m; ++i) {
                const int64_t* x = h + 5;
                for (t = 0; t < nterms; ++t) {
                    double v = ((const double*)(intptr_t)x[1])[(c0 + i) * x[2]] * scal[t];
                    for (r = 1; r < x[0]; ++r)
                        v = v * ((const double*)(intptr_t)x[1 + 2 * r])[(c0 + i) * x[2 + 2 * r]];
                    cf[i * nterms + t] = v;
                    x += 1 + 2 * x[0];
                }
            }
            for (k = 0; k + 8 * VLEN <= nnz; k += 8 * VLEN)
                FORM_TILES(vec, 8)
            for (; k + VLEN <= nnz; k += VLEN)
                FORM_TILES(vec, 1)
#if VLEN > 4
            for (; k + 4 <= nnz; k += 4)
                FORM_TILES(vec4, 1)
#endif
#if VLEN > 2
            for (; k + 2 <= nnz; k += 2)
                FORM_TILES(vec2, 1)
#endif
            for (; k < nnz; ++k)
                FORM_TILES(double, 1)
        }
    }
}

void form_entries(int64_t nform, const int64_t* forms, int64_t ncfg)
{
    form_range(0, ncfg, nform, forms);
}

/* the block of one cell an instruction names: a row of the scratch block,
   or the cell of the state / of the streaming fluxes / of the output */
#define AT(loc) ((loc) >= 0 ? block + (loc) * nvel                          \
                 : (loc) == -1 ? (double*)fc                                \
                 : (loc) == -2 ? (double*)sc : yc)
#define GROUPS(p) ((const int64_t*)(intptr_t)(p))

typedef struct {
    const double* f;
    const int64_t* held;
    double* out;
    int64_t np, nvel;
    const double* stream;
    int64_t ns;
    double* block;
    int64_t bs, nins;
    const int64_t* ins;
    const double* consts;
    int64_t staged;
    double sa, sb, dt;
    const double* u0;
    double* target;
    int64_t nform;
    const int64_t* forms;
} cell_args;

static void cell_range(const void* args, int64_t lo, int64_t hi, int64_t t)
{
    const cell_args* a = args;
    const int64_t np = a->np, nvel = a->nvel, nins = a->nins;
    const int64_t* restrict ins = a->ins;
    const double* restrict consts = a->consts;
    double* block = a->block + t * a->bs;
    int64_t c, n, k;
    if (a->nform)
        form_range(lo, hi, a->nform, a->forms);
    for (c = lo; c < hi; ++c) {
        const double* fc = a->f + (a->held ? a->held[c] : c) * np * nvel;
        const double* sc = a->stream + c * a->ns * nvel;
        double* yc = a->staged ? a->out + t * np * nvel
                               : a->out + c * np * nvel;
        for (n = 0; n < nins; ++n) {
            const int64_t* i = ins + 8 * n;
            double *y, *x;
            switch (i[0]) {
            case 0: /* sweep: src, dst, accumulate, nout, ngroups, groups */
                sweep_cell(AT(i[1]), AT(i[2]), nvel, c, i[3], i[4], i[5],
                           GROUPS(i[6]));
                break;
            case 1: /* faces: up, dn, nf, shift, extent, ngroups, groups */
                y = block + i[1] * nvel;
                x = block + i[2] * nvel;
                face_span(y, x, y, x, c, i[3], nvel, 0, 0, i[4], i[5], i[6],
                          GROUPS(i[7]));
                break;
            case 2: /* scale: at, rows, factor */
                y = AT(i[1]);
                for (k = 0; k < i[2] * nvel; ++k)
                    y[k] = y[k] * consts[i[3]];
                break;
            default: /* subtract: dst, src, rows */
                y = AT(i[1]);
                x = AT(i[2]);
                for (k = 0; k < i[3] * nvel; ++k)
                    y[k] = y[k] - x[k];
            }
        }
        if (a->staged) {
            const double* uc = a->u0 + c * np * nvel;
            double* tc = a->target + c * np * nvel;
            const double sa = a->sa, sb = a->sb, dt = a->dt;
            if (a->staged > 1)
                for (k = 0; k < np * nvel; ++k) {
                    double v = yc[k] * dt;
                    v = fc[k] + v;
                    v = v * sb;
                    tc[k] = v + uc[k] * sa;
                }
            else
                for (k = 0; k < np * nvel; ++k)
                    tc[k] = fc[k] + yc[k] * dt;
        }
    }
}

void cell_rhs(const double* f, const int64_t* held, double* out,
              int64_t ncfg, int64_t np, int64_t nvel,
              const double* stream, int64_t ns, double* block, int64_t bs,
              int64_t nins, const int64_t* ins, const double* consts,
              int64_t staged, double sa, double sb, double dt,
              const double* u0, double* target, int64_t nform,
              const int64_t* forms, int64_t nthreads)
{
    const cell_args a = {f, held, out, np, nvel, stream, ns, block, bs, nins,
                         ins, consts, staged, sa, sb, dt, u0, target, nform,
                         forms};
    run_split(cell_range, &a, ncfg, nthreads);
}

typedef struct {
    int64_t nq, np, ncfg, nvel;
    const double* C;
    const double* V;
    double* out;
} project_args;

/* the NV * (lanes of T) elements of output row o starting at i, held in
   registers while every point of the block is added in order */
#define PROJECT_SPAN(T, NV)                                                 \
    {                                                                       \
        T* oi = (T*)(o + i);                                                \
        T acc[NV];                                                          \
        for (t = 0; t < NV; ++t)                                            \
            acc[t] = oi[t];                                                 \
        for (q = 0; q < nq; ++q) {                                          \
            const double a = ck[q];                                         \
            const T* vq = (const T*)(vc + q * vs + i);                      \
            for (t = 0; t < NV; ++t)                                        \
                acc[t] += a * vq[t];                                        \
        }                                                                   \
        for (t = 0; t < NV; ++t)                                            \
            oi[t] = acc[t];                                                 \
    }

static void project_range(const void* args, int64_t lo, int64_t hi, int64_t u)
{
    const project_args* a = args;
    const int64_t nq = a->nq, np = a->np, nvel = a->nvel;
    const int64_t vs = a->ncfg * nvel;
    int64_t c, k, q, i;
    int t;
    (void)u;
    for (c = lo; c < hi; ++c)
        for (k = 0; k < np; ++k) {
            double* restrict o = a->out + (c * np + k) * nvel;
            const double* restrict ck = a->C + k * nq;
            const double* restrict vc = a->V + c * nvel;
            for (i = 0; i + 4 * VLEN <= nvel; i += 4 * VLEN)
                PROJECT_SPAN(vec, 4)
            for (; i + VLEN <= nvel; i += VLEN)
                PROJECT_SPAN(vec, 1)
#if VLEN > 4
            for (; i + 4 <= nvel; i += 4)
                PROJECT_SPAN(vec4, 1)
#endif
#if VLEN > 2
            for (; i + 2 <= nvel; i += 2)
                PROJECT_SPAN(vec2, 1)
#endif
            for (; i < nvel; ++i)
                PROJECT_SPAN(double, 1)
        }
}

void project_accumulate(int64_t nq, int64_t np, int64_t ncfg, int64_t nvel,
                        const double* C, const double* V, double* out,
                        int64_t nthreads)
{
    const project_args a = {nq, np, ncfg, nvel, C, V, out};
    run_split(project_range, &a, ncfg, nthreads);
}

/* the n contiguous doubles at a summed in numpy's pairwise order */
static double pairwise_sum(const double* a, int64_t n)
{
    int64_t i, n2;
    int j;
    double r[8], res = 0.0;
    if (n < 8) {
        for (i = 0; i < n; ++i)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        for (j = 0; j < 8; ++j)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (j = 0; j < 8; ++j)
                r[j] += a[i + j];
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i)
            res += a[i];
        return res;
    }
    n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, n2) + pairwise_sum(a + n2, n - n2);
}

typedef struct {
    const double* f;
    double* out;
    int64_t cs, ms, nin, nvel, nmom;
    const int64_t* table;
    double* rows;
    int64_t rs;
} moment_args;

static void moment_range(const void* args, int64_t lo, int64_t hi, int64_t t)
{
    const moment_args* a = args;
    const int64_t nvel = a->nvel;
    double* rows = a->rows + t * a->rs;
    int64_t c, j, r;
    for (c = lo; c < hi; ++c) {
        const double* fc = a->f + c * a->nin * nvel;
        for (j = 0; j < a->nmom; ++j) {
            const int64_t* m = a->table + 3 * j;
            double* o = a->out + c * a->cs + j * a->ms;
            sweep_cell(fc, rows, nvel, c, 0, m[0], m[1], GROUPS(m[2]));
            for (r = 0; r < m[0]; ++r)
                o[r] = 0.0 + pairwise_sum(rows + r * nvel, nvel);
        }
    }
}

void moments(const double* f, double* out, int64_t cs, int64_t ms,
             int64_t ncfg, int64_t nin, int64_t nvel, int64_t nmom,
             const int64_t* table, double* rows, int64_t rs, int64_t nthreads)
{
    const moment_args a = {f, out, cs, ms, nin, nvel, nmom, table, rows, rs};
    run_split(moment_range, &a, ncfg, nthreads);
}

/* the zero-mean periodic field of repro.fields.poisson.Poisson1D: rho
   (nx, np) through the per-cell map local (np, np) into e (nx, np), the
   cell charges into q (nx, scratch); returns the net charge */
double poisson_1d(const double* restrict rho, double* restrict e,
                  double* restrict q, int64_t nx, int64_t np,
                  const double* restrict local, double weight, double edge)
{
    int64_t i, j, k;
    double total, shift, run = 0.0, mean;
    for (i = 0; i < nx; ++i)
        for (j = 0; j < np; ++j) {
            double acc = rho[i * np] * local[j];
            for (k = 1; k < np; ++k)
                acc = acc + rho[i * np + k] * local[k * np + j];
            e[i * np + j] = acc;
        }
    for (i = 0; i < nx; ++i)
        q[i] = weight * rho[i * np];
    total = 0.0 + pairwise_sum(q, nx);
    shift = total / (double)nx;
    for (i = 0; i < nx; ++i)
        q[i] = q[i] - shift;
    for (i = 0; i + 1 < nx; ++i) {
        run = i ? run + q[i] : q[0];
        e[(i + 1) * np] = e[(i + 1) * np] + run * edge;
    }
    for (i = 0; i < nx; ++i)
        q[i] = e[i * np];
    mean = (0.0 + pairwise_sum(q, nx)) / (double)nx;
    for (i = 0; i < nx; ++i)
        e[i * np] = e[i * np] - mean;
    return total;
}

/* a[l, m] = sum_k t[l, m, k] * v[k], k ascending from +0.0 */
static void contract(const double* t, const double* v, double* a, int64_t n)
{
    int64_t lm, k;
    for (lm = 0; lm < n * n; ++lm) {
        double acc = 0.0;
        for (k = 0; k < n; ++k)
            acc += t[lm * n + k] * v[k];
        a[lm] = acc;
    }
}

/* x = a^-1 b for the factors of lu_factor (b is overwritten) */
static void lu_solve(const double* a, const int64_t* piv, double* b,
                     double* x, int64_t n)
{
    int64_t i, j, k;
    for (k = 0; k < n; ++k) {
        const double bk = b[piv[k]];
        b[piv[k]] = b[k];
        b[k] = bk;
        for (i = k + 1; i < n; ++i)
            b[i] = b[i] - a[i * n + k] * b[k];
    }
    for (i = n - 1; i >= 0; --i) {
        double s = b[i];
        for (j = i + 1; j < n; ++j)
            s = s - a[i * n + j] * x[j];
        x[i] = s / a[i * n + i];
    }
}

/* LU with partial pivoting in place (the first largest magnitude wins, a
   NaN wins at once); 0 for an exact-zero pivot */
static int lu_factor(double* a, int64_t* piv, int64_t n)
{
    int64_t i, j, k, p;
    for (k = 0; k < n; ++k) {
        double best = __builtin_fabs(a[k * n + k]);
        for (p = k, i = k + 1; i < n && best == best; ++i) {
            const double v = __builtin_fabs(a[i * n + k]);
            if (v > best || v != v) {
                best = v;
                p = i;
            }
        }
        piv[k] = p;
        if (a[p * n + k] == 0.0)
            return 0;
        for (j = 0; j < n; ++j) {
            const double s = a[k * n + j];
            a[k * n + j] = a[p * n + j];
            a[p * n + j] = s;
        }
        for (i = k + 1; i < n; ++i) {
            const double l = a[i * n + k] / a[k * n + k];
            a[i * n + k] = l;
            for (j = k + 1; j < n; ++j)
                a[i * n + j] = a[i * n + j] - l * a[k * n + j];
        }
    }
    return 1;
}

int64_t weak_primitive(const double* m, int64_t cs, int64_t ms, double* prim,
                       int64_t ncfg, int64_t n, int64_t vdim, const double* t)
{
    double a[n * n], b[n * n], w[n], x[n], udm[n];
    int64_t piv[n], c, j, l, k;
    for (c = 0; c < ncfg; ++c) {
        const double* mc = m + c * cs;
        contract(t, mc, a, n);
        if (!lu_factor(a, piv, n))
            return c;
        for (l = 0; l < n; ++l)
            udm[l] = 0.0;
        for (j = 0; j < vdim; ++j) {
            const double* m1 = mc + (1 + j) * ms;
            for (l = 0; l < n; ++l)
                w[l] = m1[l];
            lu_solve(a, piv, w, x, n);
            for (l = 0; l < n; ++l)
                prim[(j * n + l) * ncfg + c] = x[l];
            contract(t, m1, b, n);
            for (l = 0; l < n; ++l) {
                double acc = 0.0;
                for (k = 0; k < n; ++k)
                    acc += b[l * n + k] * x[k];
                udm[l] = udm[l] + acc;
            }
        }
        for (l = 0; l < n; ++l)
            w[l] = (mc[(vdim + 1) * ms + l] - udm[l]) / (double)vdim;
        lu_solve(a, piv, w, x, n);
        for (l = 0; l < n; ++l)
            prim[(vdim * n + l) * ncfg + c] = x[l];
    }
    return -1;
}
"""

#: ctypes signature of ``fused_sweep``: two pointers, six integers, the
#: table, the thread count
FUSED_SWEEP_ARGTYPES = (
    [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 6 + [ctypes.c_void_p, ctypes.c_int64]
)
#: ctypes signature of ``face_flux`` (argument order of the C prototype)
FACE_FLUX_ARGTYPES = (
    [ctypes.c_void_p] * 2
    + [ctypes.c_int64, ctypes.c_void_p]
    + [ctypes.c_int64] * 5
    + [ctypes.c_void_p] * 2
    + [ctypes.c_int64] * 2
    + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
)
#: ctypes signature of ``cell_rhs``
CELL_RHS_ARGTYPES = (
    [ctypes.c_void_p] * 3
    + [ctypes.c_int64] * 3
    + [ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p]
    + [ctypes.c_int64] * 2
    + [ctypes.c_void_p] * 2
    + [ctypes.c_int64]
    + [ctypes.c_double] * 3
    + [ctypes.c_void_p] * 2
    + [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
)
#: ctypes signature of ``form_entries``: the form count, the form table,
#: the configuration cells
FORM_ENTRIES_ARGTYPES = [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
#: ctypes signature of ``project_accumulate``: four integers, three
#: pointers, the thread count
PROJECT_ACCUMULATE_ARGTYPES = (
    [ctypes.c_int64] * 4 + [ctypes.c_void_p] * 3 + [ctypes.c_int64]
)
#: ctypes signature of ``moments``: two pointers, six integers, the table,
#: the row buffers and their stride, the thread count
MOMENTS_ARGTYPES = (
    [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 2
    + [ctypes.c_int64] * 2
)
#: ctypes signature of ``weak_primitive`` (it returns an int64)
WEAK_PRIMITIVE_ARGTYPES = (
    [ctypes.c_void_p] + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    + [ctypes.c_int64] * 3 + [ctypes.c_void_p]
)
#: ctypes signature of ``poisson_1d`` (it returns the net charge)
POISSON_1D_ARGTYPES = (
    [ctypes.c_void_p] * 3 + [ctypes.c_int64] * 2 + [ctypes.c_void_p]
    + [ctypes.c_double] * 2
)

#: cc flags: optimize, but never contract multiply-add into FMA or
#: reassociate floating point — bitwise determinism is the contract, and it
#: is what makes the result independent of the vector width; ``-pthread``
#: for the threads a split loop starts
CC_FLAGS = ("-O3", "-fPIC", "-shared", "-pthread", "-ffp-contract=off")
#: tried first, dropped once if the compiler rejects it
CC_ISA_FLAG = "-march=native"

#: (kernel dir, digest) -> loaded entry points, or None for a build that
#: failed (reported once; the compiler is not run again in this process)
_LOADED_KERNELS: Dict[Tuple[Optional[str], str], object] = {}
_TARGET: Optional[str] = None


#: doubles a call writes per thread it splits over: a call that splits
#: spends far longer on each range than the ≈ 30 µs it costs to start and
#: join a thread
WORK_PER_THREAD = 1 << 16
#: set in a forked child (see :func:`_one_thread_in_child`)
_FORKED = False


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cell_threads(n: int, work: int) -> int:
    """Threads a C loop over ``n`` independent ranges (configuration
    cells, faces) that writes ``work`` doubles splits over: one per CPU the
    process may run on, at most one per range, and no more than the work
    keeps busy — never less than 1.

    A forked child (a ``process:N`` shard, a serve worker: the machine is
    already split between them) runs one.  Called once per bound call, so
    the call itself carries the count; the most a process bound is the
    ``cell_threads`` gauge of its metrics registry."""
    if _FORKED:
        return 1
    threads = max(1, min(_cpus(), n, work // WORK_PER_THREAD))
    OBS.metrics.gauge_max("cell_threads", threads)
    return threads


def _inherited_kernels_are_not_fresh() -> None:
    """In a forked child: the kernels it inherits were built, if at all,
    by the parent, which counts that build; the child only loaded them."""
    for key, kern in _LOADED_KERNELS.items():
        if kern is not None:
            _LOADED_KERNELS[key] = kern._replace(fresh=False)


def _one_thread_in_child() -> None:
    """In a forked child: every call it binds runs on one thread."""
    global _FORKED
    _FORKED = True


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_inherited_kernels_are_not_fresh)
    os.register_at_fork(after_in_child=_one_thread_in_child)


def _kernel_dir(out_dir: Optional[str]) -> Path:
    """Artifact directory for compiled kernels: the caller's cache root
    when configured, else the one ``plan_cache=auto`` uses — the kernel is
    content-addressed, so every process finds the one built before it."""
    from ..engine.plancache import default_cache_dir

    path = Path(out_dir).expanduser() if out_dir else default_cache_dir()
    path.mkdir(parents=True, exist_ok=True)
    return path


def _native_target(cc: str) -> str:
    """What :data:`CC_ISA_FLAG` resolves to on this host: the CPU's feature
    line, or where there is no ``/proc/cpuinfo`` the compiler's own target
    macros.  Part of the artifact digest, so a kernel built on one host is
    never loaded by a different one sharing the cache directory."""
    global _TARGET
    if _TARGET is None:
        _TARGET = platform.machine()
        try:
            with open("/proc/cpuinfo") as fh:
                for line in fh:
                    if line.startswith(("flags", "Features")):
                        _TARGET += line
                        break
        except OSError:
            try:
                _TARGET += subprocess.run(
                    [cc, CC_ISA_FLAG, "-dM", "-E", "-x", "c", os.devnull],
                    capture_output=True,
                    text=True,
                    timeout=30,
                ).stdout
            except (OSError, subprocess.SubprocessError):
                pass
    return _TARGET


class CcSweep(NamedTuple):
    """The compiled+loaded ``cc``-tier sweep kernel."""

    #: ctypes entry points of :data:`FUSED_SWEEP_C`, all eight:
    #: ``fused_sweep``, ``face_flux``, ``cell_rhs``, ``project_accumulate``,
    #: ``moments``, ``weak_primitive``, ``form_entries`` and ``poisson_1d``
    #: (pointers are passed as ``arr.ctypes.data`` integers)
    fn: object
    faces: object
    cells: object
    project: object
    moments: object
    divide: object
    form: object
    poisson: object
    #: whether this process ran the compiler for it and no earlier claiming
    #: request (see :func:`compile_fused_sweep`) took that news (False:
    #: reuse of the content-addressed artifact, from disk or from this
    #: process)
    fresh: bool


def _build_sweep(cc: str, src_path: Path, out_path: str) -> None:
    """Run the compiler, with the ISA flag and — if it rejects that build —
    once more without; raises ``CalledProcessError`` carrying its stderr."""
    cmd = [cc, *CC_FLAGS, "-o", out_path, str(src_path)]
    run = dict(
        capture_output=True, text=True, errors="replace", timeout=120, check=True
    )
    try:
        subprocess.run(cmd + [CC_ISA_FLAG], **run)
    except subprocess.CalledProcessError:
        subprocess.run(cmd, **run)


def _sweep_digest(cc: Tuple[str, str]) -> str:
    """The kernel artifact's name: a digest of the source, the flags, the
    compiler's identity and the host's target."""
    return hashlib.sha256(
        "\0".join(
            (FUSED_SWEEP_C, " ".join(CC_FLAGS), cc[1], _native_target(cc[0]))
        ).encode()
    ).hexdigest()[:20]


def compile_fused_sweep(
    kernel_dir: Optional[str] = None, claim: bool = True
) -> Optional[CcSweep]:
    """The compiled ``cc``-tier sweep kernel, or None when it cannot be had.

    :data:`FUSED_SWEEP_C` is compiled — once per toolchain and target,
    whatever the plans' shapes — into a content-addressed shared object in
    ``kernel_dir`` (or :func:`~repro.engine.plancache.default_cache_dir`)
    and loaded once per process.
    Without a compiler, or when the build fails (reported by one
    ``RuntimeWarning`` per process carrying the compiler's complaint), this
    returns None and the caller sweeps with ``csr_matvecs``: execution never
    hard-fails on a compiler.

    ``fresh`` says whether the compiler ran for this artifact; the first
    request with ``claim`` (a plan, which counts it as built) takes that
    news, later ones read False.  A request without ``claim`` (the
    projection, which counts nothing) leaves it for the next plan.
    """
    cc = cc_available()
    if cc is None:
        return None
    digest = _sweep_digest(cc)
    key = (kernel_dir, digest)
    if key in _LOADED_KERNELS:
        kern = _LOADED_KERNELS[key]
        if kern is not None and claim:
            _LOADED_KERNELS[key] = kern._replace(fresh=False)
        return kern
    try:
        so_path = _kernel_dir(kernel_dir) / f"ccsweep-{digest}.so"
        fresh = not so_path.exists()
        if fresh:
            src_path = so_path.with_suffix(".c")
            publish_text(src_path, FUSED_SWEEP_C)
            with publish(so_path) as tmp:
                _build_sweep(cc[0], src_path, str(tmp))
        lib = ctypes.CDLL(str(so_path))
        fn, faces, cells = lib.fused_sweep, lib.face_flux, lib.cell_rhs
        project, moments, divide = lib.project_accumulate, lib.moments, lib.weak_primitive
        form, poisson = lib.form_entries, lib.poisson_1d
    except (OSError, subprocess.SubprocessError) as exc:
        # the compiler refused, vanished or hung; the directory is not
        # writable; the object does not load: degrade to the numpy tier,
        # and say so once
        _LOADED_KERNELS[key] = None
        said = getattr(exc, "stderr", None)  # a refusal carries the complaint
        if not (isinstance(said, str) and said.strip()):
            said = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"C sweep kernel build failed ({cc[0]}: "
            f"{said.strip().splitlines()[0]}); plans run the scipy sweep instead",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    fn.restype = faces.restype = cells.restype = project.restype = None
    moments.restype = form.restype = None
    divide.restype = ctypes.c_int64
    poisson.restype = ctypes.c_double
    fn.argtypes = FUSED_SWEEP_ARGTYPES
    faces.argtypes = FACE_FLUX_ARGTYPES
    cells.argtypes = CELL_RHS_ARGTYPES
    project.argtypes = PROJECT_ACCUMULATE_ARGTYPES
    moments.argtypes = MOMENTS_ARGTYPES
    divide.argtypes = WEAK_PRIMITIVE_ARGTYPES
    form.argtypes = FORM_ENTRIES_ARGTYPES
    poisson.argtypes = POISSON_1D_ARGTYPES
    kern = CcSweep(fn, faces, cells, project, moments, divide, form, poisson, fresh)
    _LOADED_KERNELS[key] = kern if not claim else kern._replace(fresh=False)
    return kern
