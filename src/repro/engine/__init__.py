"""Precompiled kernel execution engine.

The paper's thesis is that alias-free modal kernels cost their exact
non-zero count and nothing else; in Python the obstacle is per-call
interpreter overhead, not FLOPs.  This package removes that overhead once
and for all layers:

* :mod:`~repro.engine.plan` compiles a :class:`~repro.kernels.termset.TermSet`
  into an :class:`ExecutionPlan` — symbols pre-split into scalar /
  configuration-varying / velocity-varying factors, terms merged into one
  sparse sweep per velocity factor (entries shared by every cell, or one
  row per configuration cell formed from the field coefficients, inside
  the compiled call where one sweeps the cell) —
  keyed by the aux *signature* so a plan is compiled once and reused for
  every RK stage of every step (and invalidated if the signature changes).
  The plan is also its own, only, executor — one entry path: ``bind``
  the aux values, then ``run`` / ``run_faces`` (or ``refresh`` before a
  compiled program call over its group table); the one thing that varies is
  the sparse-sweep kernel (compiled C when a compiler is present, else
  scipy, imported by that tier only — ``$REPRO_KERNEL_TIER``), same bits;
* :mod:`~repro.engine.faces` holds the :class:`FaceMap`, the table of
  trace-buffer slots meeting at each face of one phase direction, which
  ``ExecutionPlan.run_faces`` runs a flux plan across, and
  ``conf_face_map``, the faces of a configuration axis (periodic, or read
  out of a block's ghost layers) that the Vlasov streaming directions and
  the Maxwell field share;
* :mod:`~repro.engine.program` holds the :class:`CellProgram`, one species'
  volume + trace + flux + lift plans — and a collision operator's, appended
  to its instruction table — run as one program per configuration cell
  (streaming faces over the whole grid first), optionally finishing each
  cell with a Shu–Osher :class:`Stage`;
* :mod:`~repro.engine.compile` is the seam every plan is built through:
  compile or hydrate from the content-addressed disk cache
  (:mod:`~repro.engine.plancache`), under one process-wide configuration;
* :mod:`~repro.engine.pool` owns preallocated scratch buffers so steady-state
  kernel application performs no array allocation;
* :mod:`~repro.engine.layout` fixes the canonical **cell-major** state
  layout ``(*cfg_cells, num_basis, *vel_cells)`` that plans, solvers, apps,
  steppers, and the sharded halo exchange all share — per-configuration-cell
  blocks are contiguous, so the sweeps and halo slabs need no
  transpose or gather passes.
"""

from .layout import StateLayout
from .compile import (
    CompilerConfig,
    compile_plan,
    compiler_config,
    configure,
    configure_from_spec,
    plan_counts,
)
from .faces import FaceMap
from .plan import (
    ExecutionPlan,
    PlanSignatureError,
    aux_signature,
    classify_aux_value,
    plan_digest,
)
from .plancache import PlanCache, default_cache_dir, resolve_cache_root
from .pool import ScratchPool
from .program import CellProgram, Stage

__all__ = [
    "CellProgram",
    "ExecutionPlan",
    "FaceMap",
    "Stage",
    "PlanSignatureError",
    "aux_signature",
    "classify_aux_value",
    "plan_digest",
    "CompilerConfig",
    "configure",
    "configure_from_spec",
    "compiler_config",
    "compile_plan",
    "plan_counts",
    "PlanCache",
    "default_cache_dir",
    "resolve_cache_root",
    "ScratchPool",
    "StateLayout",
]
