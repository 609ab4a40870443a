"""The plan-compilation seam: memory vs disk, and the process-wide config.

Every plan the engine builds — :class:`~repro.kernels.grouped.GroupedOperator`
misses, sharded worker blocks, campaign fleet members — routes through
:func:`compile_plan`, which per plan key (termset content, aux signature,
cell shape) either compiles an :class:`~repro.engine.plan.ExecutionPlan`
or, when a cache root is configured, hashes the key
(:func:`repro.engine.plan.plan_digest`) and hydrates a stored payload via
:meth:`ExecutionPlan.from_artifacts` — bit-identical to a fresh compile,
skipping the symbol analysis.  A payload that is missing, stale or damaged
falls back to compiling and re-publishing atomically.  Either way the plan
picks its sparse-sweep kernel from the configured ``tier``
(:func:`repro.cas.codegen.select_tier`: the C sweep when a compiler is
present, scipy's ``csr_matvecs`` otherwise); the compiled sweep kernel is a
content-addressed file beside the plan payloads, one per toolchain and
target.

Configuration is process-global (set from ``SimulationSpec`` by the runtime
driver, from the environment for library use) because plan identity is
process-global too; :func:`compiler_config` scopes overrides for tests.
Every decision increments :data:`STATS`, the counter block surfaced in
``Driver.summary()["plans"]`` and the benchmark JSON.
"""

from __future__ import annotations

import os
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..kernels.termset import AuxValue, TermSet
from ..obs import OBS as _OBS
from ..obs.metrics import SLOT as _OBS_SLOT
from .plan import ExecutionPlan, aux_signature, plan_digest
from .plancache import PlanCache, resolve_cache_root
from .pool import ScratchPool

__all__ = [
    "CompilerConfig",
    "CompileStats",
    "STATS",
    "active_config",
    "configure",
    "configure_from_spec",
    "compiler_config",
    "compile_plan",
]


@dataclass(frozen=True)
class CompilerConfig:
    """How plans are compiled and executed in this process.

    ``cache`` follows :func:`~repro.engine.plancache.resolve_cache_root`
    semantics: ``None``/``"off"`` disable the disk cache (the library
    default — bare operators never touch the filesystem), ``"auto"``
    selects ``$REPRO_CACHE_DIR`` or ``~/.cache/repro`` (the runtime-driver
    default), any other string is a cache directory.
    """

    tier: str = "auto"
    cache: Optional[str] = None


def _env_default() -> CompilerConfig:
    return CompilerConfig(
        tier=os.environ.get("REPRO_KERNEL_TIER", "auto"),
        cache=os.environ.get("REPRO_PLAN_CACHE"),
    )


_config = _env_default()


def active_config() -> CompilerConfig:
    return _config


def configure(
    tier: Optional[str] = None,
    cache: Optional[str] = None,
) -> CompilerConfig:
    """Update the process-global compiler configuration (None = keep)."""
    global _config
    updates = {}
    if tier is not None:
        updates["tier"] = tier
    if cache is not None:
        updates["cache"] = cache
    _config = replace(_config, **updates)
    return _config


def configure_from_spec(spec) -> CompilerConfig:
    """Adopt a spec's ``plan_cache`` (the driver calls this before building
    the app, so every plan of the run — including the ones sharded workers
    compile after forking — follows the spec)."""
    return configure(cache=spec.plan_cache)


@contextmanager
def compiler_config(
    tier: Optional[str] = None,
    cache: Optional[str] = None,
):
    """Scoped configuration override (tests, benchmarks)."""
    global _config
    saved = _config
    try:
        configure(tier=tier, cache=cache)
        yield _config
    finally:
        _config = saved


# --------------------------------------------------------------------- #
class CompileStats:
    """Process-global plan-compilation counters.

    ``compiled`` counts real ``ExecutionPlan`` compilations (a warm-cache
    run reports zero); ``hydrated`` counts disk-cache loads;
    ``cache_misses`` includes corrupt/stale payloads that fell back to a
    compile.  Every plan of the ``cc`` tier counts once under
    ``kernels_built`` (this plan's request ran the C compiler — once per
    toolchain and cache directory), ``kernels_loaded`` (it reused the
    artifact) or ``kernels_failed`` (the build failed and the plan sweeps
    with scipy instead).  ``compile_seconds`` is the wall time spent inside
    :func:`compile_plan` either way.
    """

    FIELDS = (
        "compiled",
        "hydrated",
        "cache_hits",
        "cache_misses",
        "cache_stores",
        "kernels_built",
        "kernels_loaded",
        "kernels_failed",
        "compile_seconds",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.compiled = 0
        self.hydrated = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_stores = 0
        self.kernels_built = 0
        self.kernels_loaded = 0
        self.kernels_failed = 0
        self.compile_seconds = 0.0

    def snapshot(self) -> Dict[str, float]:
        return {name: getattr(self, name) for name in self.FIELDS}

    @staticmethod
    def delta(
        after: Dict[str, float], before: Dict[str, float]
    ) -> Dict[str, float]:
        return {k: after[k] - before.get(k, 0) for k in after}


STATS = CompileStats()


# --------------------------------------------------------------------- #
def compile_plan(
    termset: TermSet,
    cdim: int,
    vdim: int,
    aux: Dict[str, AuxValue],
    cell_shape: Tuple[int, ...],
    pool: Optional[ScratchPool] = None,
) -> ExecutionPlan:
    """Compile (or hydrate) the plan for one plan key, per the active
    configuration."""
    cfg = _config
    t0 = time.perf_counter()
    root = resolve_cache_root(cfg.cache)
    # the plan's sweep kernel follows the configured tier; compiled kernels
    # live beside the plan payloads
    build = dict(
        pool=pool,
        tier=cfg.tier,
        kernel_dir=str(root) if root is not None else None,
    )
    plan: Optional[ExecutionPlan] = None
    digest = None
    cache = None
    if root is not None or _OBS.on:
        # observability wants the digest even without a cache: it is the
        # plan's identity in spans (``plan_apply:<digest12>``) and reports
        names = sorted({n for sym in termset.entries_by_symbol() for n in sym})
        signature = aux_signature(names, aux, cdim, vdim)
        digest = plan_digest(termset, cdim, vdim, signature, cell_shape)
    if root is not None:
        cache = PlanCache(root)
        payload = cache.load(digest)
        if payload is not None:
            try:
                plan = ExecutionPlan.from_artifacts(
                    termset, cdim, vdim, aux, cell_shape, *payload, **build
                )
                STATS.cache_hits += 1
                STATS.hydrated += 1
            except (OSError, ValueError, KeyError, zipfile.BadZipFile):
                # stale or damaged payload (``_hydrate`` and
                # ``_SweepGroup.check`` raise ValueError): recompile and
                # overwrite below.  Anything else is a bug and propagates.
                plan = None
        if plan is None:
            STATS.cache_misses += 1
    hydrated = plan is not None
    if plan is None:

        def publish(compiled: ExecutionPlan) -> None:
            if cache is not None and cache.store(digest, *compiled.to_artifacts()):
                STATS.cache_stores += 1

        plan = ExecutionPlan(
            termset, cdim, vdim, aux, cell_shape, **build, on_compiled=publish
        )
        STATS.compiled += 1
    if digest is not None:
        plan.obs_label = f"plan_apply:{digest[:12]}"
    if plan.kernel_status == "built":
        STATS.kernels_built += 1
    elif plan.kernel_status == "loaded":
        STATS.kernels_loaded += 1
    elif plan.kernel_status == "failed":
        STATS.kernels_failed += 1
    STATS.compile_seconds += time.perf_counter() - t0
    if _OBS.on:
        # mirror into the obs registry so one snapshot carries the whole
        # performance picture (STATS stays the plans-specific source)
        slot = "plan_hydrated" if hydrated else "plan_compiled"
        _OBS.finish(
            "plan_compile", t0,
            _OBS_SLOT[slot], _OBS_SLOT["plan_compile_ms"],
        )
    return plan
