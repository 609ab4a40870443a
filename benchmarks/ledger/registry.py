"""The ledger's registry: workloads, end-to-end metrics, per-layer metrics.

Pure data — importing it touches neither ``repro`` nor numpy — so
``run.py --list``, the root ``BENCHMARK.json`` and ``test_ledger_schema.py``
all read one table.  Definitions in prose live in ``README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

SERVE = "collisional_scan_serve"
ALL = ("two_stream_1x1v", "weibel_2x2v", "weibel_2x2v_p2", SERVE)

#: units whose value is a wall-clock reading: a layer the workload never
#: calls reports the measured wall of zero calls for these (see README,
#: "Layers a workload does not use") and a literal 0 for everything else
TIME_UNITS = {"s": 1.0, "ms": 1e3}


@dataclass(frozen=True)
class Workload:
    name: str
    #: scenario registry name and spec overrides (beyond the plan cache)
    scenario: str
    overrides: Dict[str, object]
    #: phase-space cells (config cells x velocity cells)
    cells: int
    #: relative total-energy drift tolerated over the measured run
    energy_tol: float
    why: str
    # Driver.run() length (serve: steps per job), checkpoint cadence, steps
    # per timed segment, set-ups per run (fresh processes; serve: fresh
    # daemons), and how far past the run the resume check goes
    run_steps: int = 0
    checkpoint_interval: int = 0
    segment_steps: int = 0
    setups: int = 0
    resume_steps: int = 0
    #: further Driver.run() blocks per process, each on a fresh Driver
    extra_runs: int = 0
    #: share of ``--seconds`` spent in timed steady-state work (step
    #: segments; serve: burst blocks): largest where two busy processes make
    #: single steps noisiest, smallest where set-up is cheap and samples many
    share: float = 1.0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="two_stream_1x1v",
        scenario="two_stream",
        overrides={},
        cells=24 * 48,
        energy_tol=1e-8,
        why=(
            "1X1V Vlasov-Poisson where kernels do almost nothing: Python glue, "
            "timestepping, diagnostics, io and import dominate; a kernel-only "
            "optimisation must show no change here"
        ),
        run_steps=100,
        checkpoint_interval=50,
        segment_steps=50,
        setups=6,
        resume_steps=100,
        extra_runs=3,
        share=0.4,
    ),
    Workload(
        name="weibel_2x2v",
        scenario="weibel_2x2v",
        overrides={},
        cells=6 * 6 * 14 * 14,
        energy_tol=1e-8,
        why=(
            "the paper's Fig. 5 problem, serial numpy baseline: step is >=90% "
            "engine plan apply, set-up ~85% kernel generation; glue hoisting "
            "must show no change in step_ms here"
        ),
        run_steps=16,
        checkpoint_interval=8,
        segment_steps=3,
        setups=2,
        resume_steps=4,
        extra_runs=1,
        share=0.6,
    ),
    Workload(
        name="weibel_2x2v_p2",
        scenario="weibel_2x2v",
        overrides={"backend": "process:2"},
        cells=6 * 6 * 14 * 14,
        energy_tol=1e-8,
        why=(
            "same spec under process:2: per-shard block plans, shared-memory "
            "halo copy and 2 barriers per stage, so serial gains bought with "
            "halo or barrier time show as the two step_ms moving apart"
        ),
        run_steps=16,
        checkpoint_interval=8,
        segment_steps=3,
        setups=2,
        resume_steps=4,
        extra_runs=2,
        share=0.8,
    ),
    Workload(
        name=SERVE,
        scenario="collisional_relaxation",
        overrides={},
        cells=2 * 32,
        energy_tol=1e-6,
        why=(
            "one ServeDaemon, seeded distinct-nu LBO jobs: new submissions "
            "(queue + hydrate + compute) beside duplicates (hash + lookup, "
            "zero compute) on one store; phase-space kernels are invisible"
        ),
        run_steps=60,
        segment_steps=60,
        setups=4,
        share=1.5,
    ),
)

WORKLOAD_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    what: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "fresh process -> import -> build -> Driver -> first step returns, warm "
        "plan cache (serve: ServeDaemon.start() -> warm-up job's result served)",
    ),
    EndToEnd(
        "run_wall_s", "s", "lower", 0.25,
        "wall of Driver.run() for the fixed step count, per-step diagnostics "
        "stream + checkpoints + fsync included (serve: one burst of new jobs, "
        "first submit -> last result)",
    ),
    EndToEnd(
        "step_ms", "ms", "lower", 0.25,
        "quietest-segment median wall of one app.step(app.suggested_dt()) "
        "(serve: wall_per_step a served job reports, quietest job)",
    ),
    EndToEnd(
        "cell_updates_per_s", "1/s", "higher", 0.25,
        "phase-space cells / step_ms: the paper's per-cell update cost inverted",
    ),
    EndToEnd(
        "peak_rss_mb", "MiB", "lower", 0.05,
        "ru_maxrss of the driver (serve: daemon) process plus RUSAGE_CHILDREN",
    ),
)


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    #: the end-to-end metric this number should move ...
    moves: str
    #: ... on these workloads; elsewhere the layer is not used
    on: Tuple[str, ...]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _pl(name, unit, better, moves, on=ALL):
    return PerLayer(name, unit, better, moves, tuple(on))


_P2 = ("weibel_2x2v_p2",)
_SV = (SERVE,)

PER_LAYER: Tuple[PerLayer, ...] = (
    _pl("runtime.cold_setup_s", "s", "lower", "setup_s"),
    _pl("runtime.import_s", "s", "lower", "setup_s"),
    _pl("runtime.spec_build_ms", "ms", "lower", "setup_s"),
    _pl("runtime.driver_overhead_ms_per_step", "ms", "lower", "run_wall_s"),
    _pl("runtime.step_ms_p50", "ms", "lower", "step_ms"),
    _pl("runtime.step_ms_tail", "ms", "lower", "step_ms"),
    _pl("kernels.generate_s", "s", "lower", "setup_s"),
    _pl("kernels.mults_per_cell", "count", "lower", "step_ms"),
    _pl("kernels.nnz", "count", "lower", "step_ms"),
    _pl("engine.plan_compile_s", "s", "lower", "setup_s"),
    _pl("engine.plans_compiled", "count", "lower", "setup_s"),
    _pl("cas.kernels_built", "count", "lower", "setup_s"),
    _pl("engine.plan_hydrate_s", "s", "lower", "setup_s"),
    _pl("engine.plans_hydrated", "count", "lower", "setup_s"),
    _pl("cas.kernels_loaded", "count", "lower", "setup_s"),
    _pl("engine.cache_hit_ratio", "ratio", "higher", "setup_s"),
    _pl("engine.cache_bytes", "bytes", "lower", "setup_s"),
    _pl("engine.plan_apply_ms_per_step", "ms", "lower", "step_ms"),
    _pl("engine.plan_applies_per_step", "count", "lower", "step_ms"),
    _pl("engine.model_gmults_per_s", "1e9/s", "higher", "cell_updates_per_s"),
    _pl("engine.scratch_bytes", "bytes", "lower", "peak_rss_mb"),
    _pl("vlasov.solver_rhs_ms", "ms", "lower", "step_ms"),
    _pl("vlasov.max_frequency_ms", "ms", "lower", "step_ms"),
    _pl("systems.rhs_ms", "ms", "lower", "step_ms"),
    _pl("systems.rhs_glue_ms", "ms", "lower", "step_ms"),
    _pl("systems.suggested_dt_ms", "ms", "lower", "step_ms"),
    _pl("systems.build_s", "s", "lower", "setup_s"),
    _pl("fields.em_for_species_ms", "ms", "lower", "step_ms"),
    _pl("fields.accumulate_rhs_ms", "ms", "lower", "step_ms"),
    _pl("moments.current_ms", "ms", "lower", "step_ms"),
    _pl("collisions.rhs_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("timestepping.stage_arith_ms", "ms", "lower", "step_ms"),
    _pl("diagnostics.record_ms", "ms", "lower", "run_wall_s"),
    _pl("diagnostics.bytes_per_record", "bytes", "lower", "run_wall_s"),
    _pl("io.checkpoint_write_ms", "ms", "lower", "run_wall_s"),
    _pl("io.checkpoint_bytes", "bytes", "lower", "run_wall_s"),
    _pl("io.checkpoint_read_ms", "ms", "lower", "run_wall_s"),
    _pl("io.resume_s", "s", "lower", "run_wall_s"),
    _pl("dist.shard_start_s", "s", "lower", "setup_s", _P2),
    _pl("dist.halo_bytes_per_step", "bytes", "lower", "step_ms", _P2),
    _pl("dist.halo_model_bytes_per_step", "bytes", "lower", "step_ms", _P2),
    _pl("dist.halo_wait_ms_per_step", "ms", "lower", "step_ms", _P2),
    _pl("dist.barrier_wait_ms_per_step", "ms", "lower", "step_ms", _P2),
    _pl("dist.scaling_efficiency", "ratio", "higher", "step_ms", _P2),
    _pl("dist.shm_bytes", "bytes", "lower", "peak_rss_mb", _P2),
    _pl("dist.shm_leaked", "count", "lower", "peak_rss_mb", _P2),
    _pl("serve.submit_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("serve.hash_ms", "ms", "lower", "run_wall_s"),
    _pl("serve.queue_wait_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("serve.job_overhead_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("serve.ttfr_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("serve.scan_jobs_per_s", "1/s", "higher", "run_wall_s", _SV),
    _pl("serve.cached_hit_ms", "ms", "lower", "run_wall_s", _SV),
    _pl("serve.stream_mb_per_s", "MB/s", "higher", "run_wall_s", _SV),
    _pl("serve.jobs_completed", "count", "higher", "run_wall_s", _SV),
    _pl("serve.jobs_deduped", "count", "higher", "run_wall_s", _SV),
    _pl("serve.jobs_failed", "count", "lower", "run_wall_s", _SV),
    _pl("serve.drain_s", "s", "lower", "run_wall_s", _SV),
    _pl("obs.trace_overhead", "ratio", "lower", "step_ms"),
    _pl("obs.spans_recorded", "count", "higher", "step_ms"),
    _pl("obs.spans_dropped", "count", "lower", "step_ms"),
    _pl("obs.layer_coverage", "ratio", "higher", "step_ms"),
)

END_TO_END_BY_NAME = {m.name: m for m in END_TO_END}


def benchmark_json(run_seconds: int) -> dict:
    """The root ``BENCHMARK.json`` as this registry defines it."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
