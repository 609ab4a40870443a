"""The plan-compilation seam: memory vs disk, and the process-wide config.

Every plan the engine builds — :meth:`GroupedOperator.plan_for
<repro.kernels.grouped.GroupedOperator.plan_for>` misses, sharded worker blocks, campaign fleet members — routes through
:func:`compile_plan`, which per plan key (termset content, aux signature,
cell shape) either compiles an :class:`~repro.engine.plan.ExecutionPlan`
or, when a cache root is configured, hashes the key
(:func:`repro.engine.plan.plan_digest`) and hydrates a stored payload via
:meth:`ExecutionPlan.from_artifacts` — bit-identical to a fresh compile,
skipping the symbol analysis.  A payload that is missing, stale or damaged
falls back to compiling and re-publishing atomically, under the entry's
lock (:meth:`~repro.engine.plancache.PlanCache.lock`) with the cache checked
again once it is held, so processes sharing a cold root — the shards of a
``process:N`` run — compile each plan key once and hydrate it otherwise.  Either way the plan
picks its sparse-sweep kernel from the configured ``tier``
(:func:`repro.cas.codegen.select_tier`: the C sweep when a compiler is
present, scipy's ``csr_matvecs`` otherwise — the compiled tier never imports
scipy); the compiled sweep kernel is a content-addressed file beside the
plan payloads, one per toolchain and target.

Configuration is process-global (set from ``SimulationSpec`` by the runtime
driver; the tier from ``$REPRO_KERNEL_TIER`` for library use) because plan
identity is process-global too; :func:`compiler_config` scopes overrides for
tests.
Every decision increments its slot of the obs metrics registry
(:mod:`repro.obs.metrics`) in every observability mode;
:func:`plan_counts` reads them back as ``Driver.summary()["plans"]``.
"""

from __future__ import annotations

import os
import time
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from ..cas.codegen import CcSweep, compile_fused_sweep, select_tier
from ..kernels.termset import AuxValue, TermSet
from ..obs import OBS as _OBS
from .plan import ExecutionPlan, aux_signature, plan_digest
from .plancache import PlanCache, resolve_cache_root
from .pool import ScratchPool

__all__ = [
    "CompilerConfig",
    "configure",
    "configure_from_spec",
    "compiler_config",
    "compile_plan",
    "compiled_kernel",
    "plan_counts",
]


@dataclass(frozen=True)
class CompilerConfig:
    """How plans are compiled and executed in this process.

    ``cache`` follows :func:`~repro.engine.plancache.resolve_cache_root`
    semantics: ``None``/``"off"`` disable the plan-payload cache (the
    library default), ``"auto"`` selects ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro`` (the runtime-driver default), any other string is a
    cache directory.  The compiled sweep kernel is kept in the cache
    directory, or in the ``"auto"`` one when the cache is off.
    """

    tier: str = "auto"
    cache: Optional[str] = None


_config = CompilerConfig(tier=os.environ.get("REPRO_KERNEL_TIER", "auto"))


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


def compiled_kernel() -> Optional[CcSweep]:
    """The compiled kernel (every entry point of
    :data:`~repro.cas.codegen.FUSED_SWEEP_C`) under the active
    configuration, or None where plans sweep with numpy.  It counts nothing:
    the artifact's ``fresh`` news is left to the first plan that loads it."""
    cfg = _config
    if select_tier(cfg.tier) != "cc":
        return None
    root = resolve_cache_root(cfg.cache)
    return compile_fused_sweep(str(root) if root is not None else None, claim=False)


# --------------------------------------------------------------------- #
#: ``Driver.summary()["plans"]`` key -> the registry slot it reads
_PLAN_SLOTS = {
    "compiled": "plan_compiled",
    "hydrated": "plan_hydrated",
    "cache_hits": "plan_cache_hits",
    "cache_misses": "plan_cache_misses",
    "cache_stores": "plan_cache_stores",
    "kernels_built": "kernels_built",
    "kernels_loaded": "kernels_loaded",
    "kernels_failed": "kernels_failed",
}


def plan_counts(snapshot: Dict[str, float]) -> Dict[str, float]:
    """The plan-compilation counts of a metrics snapshot.

    ``compiled`` counts real ``ExecutionPlan`` compilations (a warm-cache
    run reports zero); ``hydrated`` counts cache loads, whether the
    payload was parsed from disk or came from the in-process memo of
    unchanged entries (:mod:`repro.engine.plancache`);
    ``cache_misses`` includes corrupt/stale payloads that fell back to a
    compile.  Every plan of the ``cc`` tier counts once under
    ``kernels_built`` (this plan's request ran the C compiler — once per
    toolchain and cache directory), ``kernels_loaded`` (it reused the
    artifact) or ``kernels_failed`` (the build failed and the plan sweeps
    with scipy instead).  ``compile_seconds`` is the wall time spent inside
    :func:`compile_plan` either way.  ``cell_threads`` is the most threads
    any C call split over (:func:`repro.cas.codegen.cell_threads`; 1 when
    none splits).
    """
    out: Dict[str, float] = {
        key: int(snapshot[slot]) for key, slot in _PLAN_SLOTS.items()
    }
    out["compile_seconds"] = snapshot["plan_compile_ms"] / 1e3
    out["cell_threads"] = max(1, int(snapshot["cell_threads"]))
    return out


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
    digest = None
    if root is not None or _OBS.on:
        # observability wants the digest even without a cache: it is the
        # plan's identity in spans (``plan_apply:<digest12>``) and reports
        names = sorted({n for sym in termset.entries_by_symbol() for n in sym})
        signature = aux_signature(names, aux, cdim, vdim)
        digest = plan_digest(termset, cdim, vdim, signature, cell_shape)
    metrics = _OBS.metrics

    def hydrate() -> Optional[ExecutionPlan]:
        payload = cache.load(digest)
        if payload is None:
            return None
        try:
            loaded = ExecutionPlan.from_artifacts(
                termset, cdim, vdim, aux, cell_shape, *payload, **build
            )
        except (OSError, ValueError, KeyError, zipfile.BadZipFile):
            # stale or damaged payload (``_hydrate`` and
            # ``_SweepGroup.check`` raise ValueError): recompile and
            # overwrite below.  Anything else is a bug and propagates.
            return None
        metrics.add("plan_cache_hits")
        return loaded

    def publish(compiled: ExecutionPlan) -> None:
        if cache.store(digest, *compiled.to_artifacts()):
            metrics.add("plan_cache_stores")

    hydrated = root is not None
    if root is None:
        plan = ExecutionPlan(termset, cdim, vdim, aux, cell_shape, **build)
    else:
        cache = PlanCache(root)
        plan = hydrate()
        if plan is None:
            # one compile per digest among the processes sharing the root: a
            # process that waited for the lock finds the payload stored
            with cache.lock(digest):
                plan = hydrate()
                if plan is None:
                    metrics.add("plan_cache_misses")
                    hydrated = False
                    plan = ExecutionPlan(
                        termset, cdim, vdim, aux, cell_shape, **build, on_compiled=publish
                    )
    metrics.add("plan_hydrated" if hydrated else "plan_compiled")
    if digest is not None:
        plan.obs_label = f"plan_apply:{digest[:12]}"
    if plan.kernel_status is not None:
        metrics.add("kernels_" + plan.kernel_status)
    # the span when tracing; the time in every mode
    metrics.add("plan_compile_ms", _OBS.finish("plan_compile", t0) * 1e3)
    return plan
