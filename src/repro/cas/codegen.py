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
  freezes, with three entry points over one loop body — ``fused_sweep``
  (state in, state out), ``face_flux`` (the same groups across the faces of
  one direction: two trace slots in, both overwritten with the flux) and
  ``cell_rhs`` (a :class:`~repro.engine.program.CellProgram`: per
  configuration cell, acceleration trace → flux → lift in a cell-local
  block, volume and streaming lift, optionally the Shu–Osher stage).  Its
  source is a constant — shapes, the ``accumulate`` flag, the group and face
  tables are arguments — so nothing is emitted per plan:
  :func:`compile_fused_sweep` shells out to the system C compiler once per
  toolchain and target (``-O3 -ffp-contract=off -march=native``: no FMA
  contraction and no reassociation, so results stay bit-identical to
  scipy's ``csr_matvecs`` over the same groups at any vector width; the
  ISA flag is dropped once if the compiler rejects it), loads the shared
  object through :mod:`ctypes` once per process, and keys the artifact by
  a content digest of the source, the flags, the compiler version and the
  host's resolved target, so repeated runs — and sibling worker processes
  — reuse the compiled kernel without recompiling, and a host with another
  instruction set sharing the cache directory never loads it.  Without a
  compiler (or under ``$REPRO_KERNEL_TIER=numpy``, :func:`select_tier`) the
  plan runs the scipy sweep instead: two sweep kernels, picked by what the
  process can observe.  A build that fails is reported (one
  ``RuntimeWarning``, counted by the engine as ``kernels_failed``) and
  degrades the same way.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import warnings
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

from ..io.atomic import publish, publish_text

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


_CC = None  # cached (compiler path, version line) or False


def cc_available() -> Optional[Tuple[str, str]]:
    """The system C compiler as ``(path, version line)``, or None.

    Probed once per process: the first of ``$CC``, ``cc``, ``gcc``,
    ``clang`` that answers ``--version``.  The version string participates
    in the kernel artifact digest so a toolchain change recompiles.
    """
    global _CC
    if _CC is None:
        _CC = False
        candidates = [os.environ.get("CC"), "cc", "gcc", "clang"]
        for cand in candidates:
            if not cand:
                continue
            try:
                out = subprocess.run(
                    [cand, "--version"],
                    capture_output=True,
                    text=True,
                    timeout=30,
                )
            except (OSError, subprocess.SubprocessError):
                continue
            if out.returncode == 0 and out.stdout:
                _CC = (cand, out.stdout.splitlines()[0].strip())
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
#: three entry points over one group-table format.
#:
#: ``groups`` is an ``(ngroups, 5)`` int64 table: per group the address of
#: its entries, the stride in doubles between configuration cells' entry
#: rows (0: one row shared by every cell), the addresses of the per-cell CSR
#: ``indptr`` / ``indices`` (int64) and of the flattened ``(nvel,)`` velocity
#: factor (0: unweighted).
#:
#: ``fused_sweep(f, y, accumulate, ncfg, nout, nin, nvel, ngroups, groups)``
#: applies the groups to cell-major ``f`` ``(ncfg, nin, nvel)`` into ``y``
#: ``(ncfg, nout, nvel)``.
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
#: shift, extent, ngroups, groups, penalize, tau)`` runs an ``nf x nf`` flux
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
#:    the element sequence of ``fused_sweep`` — and with ``penalize`` adds
#:    ``(A[v] - B[v + shift]) * tau`` (``0.0 * tau`` on the boundary);
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
#: ``cell_rhs(f, held, out, ncfg, np, nvel, prog, stream, block, accel, taus,
#: staged, sa, sb, dt, u0, target)`` is the modal Vlasov right-hand side as
#: one program per configuration cell, over the loop bodies of the other two
#: (``sweep_span``, ``face_span``).  ``f`` is the cell-major state handed in
#: (``held[c]`` its index of own cell ``c``, or no table: ``c``), ``stream``
#: the ``(ncfg, ns, nvel)`` buffer already holding the *streaming* face
#: fluxes of every own cell, ``block`` an ``(na, nvel)`` scratch.  ``prog``
#: is 12 int64: group count and group-table address of the volume operator
#: ``[0:2]``, ``ns`` and the streaming lift ``[2:5]``, ``na`` and the
#: acceleration trace ``[5:8]``, the acceleration lift ``[8:10]``, ``nf``
#: and the number of acceleration directions ``[10:12]``; ``accel`` has one
#: 7-int64 row per acceleration direction (upper and lower slot row in the
#: block, ``shift``, ``extent``, group count, group-table address,
#: ``penalize``) and ``taus`` its penalty factors.  Per cell ``c``:
#:
#: 1. sweep the acceleration traces of ``f[c]`` into ``block``;
#: 2. run ``face_span`` on the block, in place, for each acceleration
#:    direction — ``face_flux`` on a one-cell trace buffer;
#: 3. sweep the volume groups of ``f[c]`` into the output cell from
#:    ``+0.0``, then accumulate the streaming lift of ``stream[c]`` and the
#:    acceleration lift of ``block`` — per output element the entry sequence
#:    of the three state-sized passes ``fused_sweep`` would make (a store and
#:    a reload between them change no bits);
#: 4. ``staged == 0``: the output cell is ``out[c]``.  Otherwise ``out`` is
#:    one ``(np, nvel)`` cell of scratch holding ``L`` and the Shu–Osher
#:    stage is applied on the way out, in the association of
#:    ``repro.timestepping.ssprk``: ``target[c] = f[c] + L * dt`` (``staged
#:    == 1``) or ``target[c] = (f[c] + L * dt) * sb + u0[c] * sa``.
#:
#: *In place:* ``target`` may be ``f`` — the streaming traces, the only
#: reads that cross configuration cells, were taken before the call, and
#: cell ``c`` is written after its last read.
FUSED_SWEEP_C = r"""#include <stdint.h>

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

void fused_sweep(const double* restrict f, double* restrict y,
                 int64_t accumulate,
                 int64_t ncfg, int64_t nout, int64_t nin, int64_t nvel,
                 int64_t ngroups, const int64_t* restrict groups)
{
    int64_t c;
    for (c = 0; c < ncfg; ++c)
        sweep_span(f + c * nin * nvel, nvel, y + c * nout * nvel, nvel, nvel,
                   0, c, accumulate, nout, ngroups, groups);
}

#define FACE_TILE (16 * VLEN)

/* one face, every velocity cell: the state from a (the upper-face trace of
   the cell below) and b (the lower-face trace of the cell above), the flux
   of configuration cell c's entries to yu and yd (0: not written) */
static __attribute__((noinline)) void
face_span(const double* a, const double* b, double* yu, double* yd, int64_t c,
          int64_t nf, int64_t nvel, const double* wa, const double* wb,
          int64_t shift, int64_t extent,
          int64_t ngroups, const int64_t* restrict groups,
          int64_t penalize, double tau)
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
        if (penalize)
            for (m = 0; m < nf; ++m)
                for (t = 0; t < len; ++t) {
                    const int64_t k = m * nvel + v0 + t;
                    yt[m * FACE_TILE + t] +=
                        (upper[t] ? a[k] - b[k + shift] : 0.0) * tau;
                }
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

void face_flux(const double* src, double* dst,
               int64_t nfaces, const int64_t* restrict faces,
               int64_t nrows, int64_t up, int64_t dn, int64_t nf, int64_t nvel,
               const double* wa, const double* wb,
               int64_t shift, int64_t extent,
               int64_t ngroups, const int64_t* restrict groups,
               int64_t penalize, double tau)
{
    int64_t n;
    for (n = 0; n < nfaces; ++n) {
        const int64_t* face = faces + 5 * n;
        face_span(src + (face[1] * nrows + up) * nvel,
                  src + (face[2] * nrows + dn) * nvel,
                  face[3] < 0 ? 0 : dst + (face[3] * nrows + up) * nvel,
                  face[4] < 0 ? 0 : dst + (face[4] * nrows + dn) * nvel,
                  face[0], nf, nvel, wa, wb, shift, extent, ngroups, groups,
                  penalize, tau);
    }
}

/* sweep_span over all nvel velocity cells of one configuration cell, out of
   line: one copy of the loop nest serves the four sweeps of cell_rhs */
static __attribute__((noinline)) void
sweep_cell(const double* restrict fc, double* restrict yc, int64_t nvel,
           int64_t c, int64_t accumulate, int64_t nout, int64_t ngroups,
           const int64_t* restrict groups)
{
    sweep_span(fc, nvel, yc, nvel, nvel, 0, c, accumulate, nout, ngroups,
               groups);
}

#define GROUPS(k) ((const int64_t*)(intptr_t)prog[k])

void cell_rhs(const double* f, const int64_t* restrict held, double* out,
              int64_t ncfg, int64_t np, int64_t nvel,
              const int64_t* restrict prog, const double* stream,
              double* block, const int64_t* restrict accel,
              const double* restrict taus,
              int64_t staged, double sa, double sb, double dt,
              const double* u0, double* target)
{
    const int64_t nvol = prog[0], ns = prog[2], nlift_s = prog[3],
                  na = prog[5], ntrace = prog[6], nlift_a = prog[8],
                  nf = prog[10], naccel = prog[11];
    int64_t c, j, k;
    for (c = 0; c < ncfg; ++c) {
        const double* fc = f + (held ? held[c] : c) * np * nvel;
        double* yc = staged ? out : out + c * np * nvel;
        sweep_cell(fc, block, nvel, c, 0, na, ntrace, GROUPS(7));
        for (j = 0; j < naccel; ++j) {
            const int64_t* dir = accel + 7 * j;
            double* up = block + dir[0] * nvel;
            double* dn = block + dir[1] * nvel;
            face_span(up, dn, up, dn, c, nf, nvel, 0, 0, dir[2], dir[3],
                      dir[4], (const int64_t*)(intptr_t)dir[5], dir[6], taus[j]);
        }
        sweep_cell(fc, yc, nvel, c, 0, np, nvol, GROUPS(1));
        sweep_cell(stream + c * ns * nvel, yc, nvel, c, 1, np, nlift_s, GROUPS(4));
        sweep_cell(block, yc, nvel, c, 1, np, nlift_a, GROUPS(9));
        if (staged) {
            const double* uc = u0 + c * np * nvel;
            double* tc = target + c * np * nvel;
            if (staged > 1)
                for (k = 0; k < np * nvel; ++k) {
                    double t = yc[k] * dt;
                    t = fc[k] + t;
                    t = t * sb;
                    tc[k] = t + uc[k] * sa;
                }
            else
                for (k = 0; k < np * nvel; ++k)
                    tc[k] = fc[k] + yc[k] * dt;
        }
    }
}
"""

#: ctypes signature of ``fused_sweep``: two pointers, six integers, the table
FUSED_SWEEP_ARGTYPES = (
    [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 6 + [ctypes.c_void_p]
)
#: ctypes signature of ``face_flux`` (argument order of the C prototype)
FACE_FLUX_ARGTYPES = (
    [ctypes.c_void_p] * 2
    + [ctypes.c_int64, ctypes.c_void_p]
    + [ctypes.c_int64] * 5
    + [ctypes.c_void_p] * 2
    + [ctypes.c_int64] * 2
    + [ctypes.c_int64, ctypes.c_void_p]
    + [ctypes.c_int64, ctypes.c_double]
)
#: ctypes signature of ``cell_rhs``
CELL_RHS_ARGTYPES = (
    [ctypes.c_void_p] * 3
    + [ctypes.c_int64] * 3
    + [ctypes.c_void_p] * 5
    + [ctypes.c_int64]
    + [ctypes.c_double] * 3
    + [ctypes.c_void_p] * 2
)

#: cc flags: optimize, but never contract multiply-add into FMA or
#: reassociate floating point — bitwise determinism is the contract, and it
#: is what makes the result independent of the vector width
CC_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
#: tried first, dropped once if the compiler rejects it
CC_ISA_FLAG = "-march=native"

_KERNEL_TMPDIR: Optional[str] = None
#: (kernel dir, digest) -> loaded entry points, or None for a build that
#: failed (reported once; the compiler is not run again in this process)
_LOADED_KERNELS: Dict[Tuple[Optional[str], str], object] = {}
_TARGET: Optional[str] = None


def _kernel_dir(out_dir: Optional[str]) -> Path:
    """Artifact directory for compiled kernels: the caller's cache root
    when configured, else one process-lifetime temp dir."""
    global _KERNEL_TMPDIR
    if out_dir:
        path = Path(out_dir).expanduser()
        path.mkdir(parents=True, exist_ok=True)
        return path
    if _KERNEL_TMPDIR is None:
        _KERNEL_TMPDIR = tempfile.mkdtemp(prefix="repro-kernels-")
    return Path(_KERNEL_TMPDIR)


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

    #: ctypes entry points of :data:`FUSED_SWEEP_C`, ``fused_sweep``,
    #: ``face_flux`` and ``cell_rhs`` (pointers are passed as
    #: ``arr.ctypes.data`` integers)
    fn: object
    faces: object
    cells: object
    #: whether this request ran the compiler (False: reuse of the
    #: content-addressed artifact, from disk or from this process)
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


def compile_fused_sweep(kernel_dir: Optional[str] = None) -> Optional[CcSweep]:
    """The compiled ``cc``-tier sweep kernel, or None when it cannot be had.

    :data:`FUSED_SWEEP_C` is compiled — once per toolchain and target,
    whatever the plans' shapes — into a content-addressed shared object in
    ``kernel_dir`` (or a process temp dir) and loaded once per process.
    Without a compiler, or when the build fails (reported by one
    ``RuntimeWarning`` per process carrying the compiler's complaint), this
    returns None and the caller sweeps with ``csr_matvecs``: execution never
    hard-fails on a compiler.
    """
    cc = cc_available()
    if cc is None:
        return None
    digest = hashlib.sha256(
        "\0".join(
            (FUSED_SWEEP_C, " ".join(CC_FLAGS), cc[1], _native_target(cc[0]))
        ).encode()
    ).hexdigest()[:20]
    key = (kernel_dir, digest)
    if key in _LOADED_KERNELS:
        kern = _LOADED_KERNELS[key]
        return None if kern is None else kern._replace(fresh=False)
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
    fn.restype = faces.restype = cells.restype = None
    fn.argtypes = FUSED_SWEEP_ARGTYPES
    faces.argtypes = FACE_FLUX_ARGTYPES
    cells.argtypes = CELL_RHS_ARGTYPES
    kern = _LOADED_KERNELS[key] = CcSweep(fn, faces, cells, fresh)
    return kern
