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
* :func:`emit_fused_sweep_c` lowers the *compiled* form — the merged
  per-cell sparse blocks an :class:`~repro.engine.plan.ExecutionPlan`
  freezes — into one fused C loop nest per plan, exactly Gkeyll's artifact
  shape: a single pass over cell blocks covering every uniform sweep with
  its velocity-factor weighting applied in-register.
  :func:`compile_fused_sweep` shells out to the system C compiler
  (``-O3 -ffp-contract=off``: vectorized but no FMA contraction and no
  reassociation, so results stay bit-identical to scipy's ``csr_matvecs``
  over the same blocks), loads the shared object through :mod:`ctypes`, and
  keys the artifact by a content digest of the source plus compiler
  version, so repeated runs — and sibling worker processes — reuse the
  compiled kernel without recompiling.  Without a compiler (or under
  ``$REPRO_KERNEL_TIER=numpy``) it returns None and the plan runs the scipy
  sweep instead: two sweep kernels, picked by what the process can observe.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at runtime
    from ..kernels.termset import Symbol, TermSet

__all__ = [
    "emit_kernel_source",
    "compile_kernel",
    "count_multiplications",
    "emit_fused_sweep_c",
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
# fused per-cell-block sweep lowering (the AOT tier)


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


def emit_fused_sweep_c(
    ncfg: int, nout: int, nin: int, nvel: int, weighted: Sequence[bool]
) -> str:
    """C source of one fused sweep kernel, dimensions baked as literals.

    Exported symbol: ``void fused_sweep(const double *f, double *y, ...)``
    with, per group, ``(const double *d, const int64_t *p, const int64_t
    *i[, const double *w])`` — the merged per-cell CSR block (scalar
    factors folded into ``d``) and, for weighted groups, the flattened
    ``(nvel,)`` velocity factor.  The accumulation per output element is
    group order then in-row entry order with the weight applied as
    ``a * (f * w)`` — statement-for-statement the numpy tier's float
    operation sequence (weight the state, then ``csr_matvecs``), so
    compiling with contraction disabled keeps results bit-identical.
    """
    args = ["const double* restrict f", "double* restrict y"]
    for g, w in enumerate(weighted):
        args += [
            f"const double* restrict d{g}",
            f"const int64_t* restrict p{g}",
            f"const int64_t* restrict i{g}",
        ]
        if w:
            args.append(f"const double* restrict w{g}")
    lines = [
        "#include <stdint.h>",
        "",
        f"/* auto-generated fused uniform-sweep kernel:",
        f"   ncfg={ncfg} nout={nout} nin={nin} nvel={nvel}",
        f"   groups={list(map(bool, weighted))} */",
        "void fused_sweep(" + ",\n                 ".join(args) + ")",
        "{",
        "    int64_t c, r, k, v;",
        f"    for (c = 0; c < {ncfg}; ++c) {{",
        f"        const double* fc = f + c * (int64_t){nin * nvel};",
        f"        double* yc = y + c * (int64_t){nout * nvel};",
    ]
    for g, w in enumerate(weighted):
        lines += [
            f"        for (r = 0; r < {nout}; ++r) {{",
            f"            double* yr = yc + r * {nvel};",
            f"            for (k = p{g}[r]; k < p{g}[r + 1]; ++k) {{",
            f"                const double a = d{g}[k];",
            f"                const double* fj = fc + i{g}[k] * {nvel};",
            f"                for (v = 0; v < {nvel}; ++v)",
        ]
        if w:
            lines.append(
                f"                    yr[v] += a * (fj[v] * w{g}[v]);"
            )
        else:
            lines.append("                    yr[v] += a * fj[v];")
        lines += ["            }", "        }"]
    lines += ["    }", "}", ""]
    return "\n".join(lines)


#: cc flags: optimize and vectorize, but never contract multiply-add into
#: FMA or reassociate floating point — bitwise determinism is the contract
CC_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_KERNEL_TMPDIR: Optional[str] = None
_LOADED_KERNELS: Dict[str, object] = {}


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


class CcSweep:
    """A compiled+loaded ``cc``-tier sweep kernel.

    ``fn`` is the raw ctypes entry point taking one ``c_void_p`` per
    pointer argument (callers pass ``arr.ctypes.data`` integers);
    ``fresh`` records whether this process actually ran the compiler
    (False: content-addressed artifact reuse).
    """

    __slots__ = ("fn", "path", "source", "fresh", "nargs")

    def __init__(self, fn, path: Path, source: str, fresh: bool, nargs: int):
        self.fn = fn
        self.path = path
        self.source = source
        self.fresh = fresh
        self.nargs = nargs


def _compile_sweep_cc(
    ncfg: int,
    nout: int,
    nin: int,
    nvel: int,
    weighted: Sequence[bool],
    out_dir: Optional[str],
) -> Optional[CcSweep]:
    cc = cc_available()
    if cc is None:  # pragma: no cover - compiler probed by select_tier
        return None
    source = emit_fused_sweep_c(ncfg, nout, nin, nvel, weighted)
    digest = hashlib.sha256(
        (source + "\0" + cc[1]).encode()
    ).hexdigest()[:20]
    nargs = 2 + sum(4 if w else 3 for w in weighted)
    try:
        kdir = _kernel_dir(out_dir)
        so_path = kdir / f"ccsweep-{digest}.so"
        cached = _LOADED_KERNELS.get(str(so_path))
        if cached is not None:
            return CcSweep(cached, so_path, source, False, nargs)
        fresh = False
        if not so_path.exists():
            src_path = kdir / f"ccsweep-{digest}.c"
            src_path.write_text(source)
            fd, tmp = tempfile.mkstemp(
                dir=kdir, prefix=f".ccsweep-{digest}-", suffix=".so"
            )
            os.close(fd)
            try:
                proc = subprocess.run(
                    [cc[0], *CC_FLAGS, "-o", tmp, str(src_path)],
                    capture_output=True,
                    timeout=120,
                )
                if proc.returncode != 0:
                    return None
                os.replace(tmp, so_path)  # atomic publish
                fresh = True
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(so_path))
        fn = lib.fused_sweep
        fn.restype = None
        fn.argtypes = [ctypes.c_void_p] * nargs
        _LOADED_KERNELS[str(so_path)] = fn
        return CcSweep(fn, so_path, source, fresh, nargs)
    except Exception:
        # toolchain or filesystem trouble: degrade to the numpy tier
        return None


def compile_fused_sweep(
    ncfg: int,
    nout: int,
    nin: int,
    nvel: int,
    weighted: Sequence[bool],
    tier: str = "auto",
    kernel_dir: Optional[str] = None,
) -> Optional[CcSweep]:
    """Compile one fused sweep kernel, or return None for the scipy sweep.

    Under the ``cc`` tier the emitted C is compiled through the system
    compiler into a content-addressed shared object in ``kernel_dir`` (or a
    process temp dir).  Under ``numpy`` — or on any toolchain failure —
    this returns None and the caller sweeps with ``csr_matvecs``; execution
    never hard-fails on a compiler.
    """
    if select_tier(tier) != "cc":
        return None
    return _compile_sweep_cc(ncfg, nout, nin, nvel, weighted, kernel_dir)
