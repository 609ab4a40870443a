"""Harness side of each pass: spawn the children, run the cross-process
correctness checks, and reduce the raw samples to metrics.

Two passes per workload: ``end_to_end`` (observability off, quietest-block
estimates) and ``layers`` (the traced pass; per-layer numbers come from it
and from nowhere else).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    ChildFailed,
    Checks,
    build_root,
    dir_bytes,
    isolated_env,
    median,
    quietest,
    run_child,
    timer_floor,
)
from registry import PER_LAYER, SERVE, TIME_UNITS, Workload

_COLD_KEYS = ("engine.plan_compile_s", "engine.plans_compiled", "cas.kernels_built")


def _quietest(unit: str, blocks: List[float], samples: Optional[int] = None) -> dict:
    """A quietest-block estimate with its noise floor beside it."""
    best, spread = quietest(blocks)
    return {
        "value": best,
        "unit": unit,
        "n": samples if samples is not None else len(blocks),
        "blocks": blocks,
        "spread": spread,
    }


def _median_of(unit: str, values: List[float]) -> dict:
    """A quantity machine noise does not move (memory): the median, with
    the range the samples cover beside it."""
    mid = median(values)
    return {"value": mid, "unit": unit, "n": len(values), "blocks": values,
            "spread": (max(values) - min(values)) / mid}


def _throughput(cells: int, step: dict) -> dict:
    blocks = [cells / (b * 1e-3) for b in step["blocks"]]
    return {
        "value": cells / (step["value"] * 1e-3),
        "unit": "1/s",
        "n": step["n"],
        "blocks": blocks,
        "spread": step["spread"],
    }


def _child(checks: Checks, script: str, cfg: dict, cache: Path) -> Optional[dict]:
    try:
        res = run_child(script, cfg, isolated_env(cache))
    except ChildFailed as exc:
        checks.check("child process completed", False, str(exc).splitlines()[-1][:300])
        return None
    checks.absorb(res["checks"])
    return res


def _sim_cfg(w: Workload, cache: Path, outdir: Path) -> dict:
    """One ``sim_child.py`` process: set-up and one ``Driver.run()``; the
    caller adds what else it should do."""
    return {
        "workload": w.name,
        "scenario": w.scenario,
        "overrides": w.overrides,
        "cache": str(cache),
        "outdir": str(outdir),
        "run_steps": w.run_steps,
        "checkpoint_interval": w.checkpoint_interval,
        "segment_steps": w.segment_steps,
        "segment_seconds": 0.0,
        "energy_tol": w.energy_tol,
        "sharded": "backend" in w.overrides,
        "extra_runs": 0,
        "resume_steps": 0,
        "serial_reference": False,
    }


def built(w: Workload, root: Path, checks: Checks) -> Tuple[Path, dict]:
    """The workload's build, made on the first run in a checkout and kept
    (``harness.build_root``): one process of the workload on an empty plan
    cache, which leaves the cache warm and gives the reference every later
    run is checked against -- the cold-cache diagnostics digest, and for a
    sharded workload the serial one.  Returns ``(plan cache, reference)``."""
    home = build_root() / w.name
    cache, ref_file = home / "plan-cache", home / "reference.json"
    if ref_file.is_file():
        return cache, json.loads(ref_file.read_text())
    shutil.rmtree(home, ignore_errors=True)  # an interrupted build's half cache
    cfg = dict(_sim_cfg(w, cache, root / "build"), serial_reference="backend" in w.overrides)
    res = _child(checks, "sim_child.py", cfg, cache)
    if res is None:
        raise RuntimeError(f"{w.name}: the build process did not complete")
    cold = checks.check("cold run compiles its plans", res["plans"]["compiled"] > 0)
    ref = {
        "diag_sha": res["diag_sha"],
        "serial_diag_sha": res.get("serial_diag_sha"),
        "cold_setup_s": res["t_ready"] - res["t_spawn"],
        "cold_plans": res["plans"],
    }
    if cold and not res["checks"]["failures"]:  # a failed build is made again
        ref_file.write_text(json.dumps(ref))
    return cache, ref


# ---------------------------------------------------------------------- #
def end_to_end(
    w: Workload, seconds: float, seed: int, root: Path, checks: Checks
) -> Tuple[Dict[str, dict], dict]:
    cache, ref = built(w, root, checks)
    budget = seconds * w.share
    if w.name == SERVE:
        return _serve_end_to_end(w, budget, seed, root, cache, ref, checks)
    runs = []
    for i in range(w.setups):
        cfg = dict(
            _sim_cfg(w, cache, root / f"out-{i}"),
            segment_seconds=budget / w.setups,
            extra_runs=w.extra_runs,
            resume_steps=w.resume_steps if i == w.setups - 1 else 0,
        )
        res = _child(checks, "sim_child.py", cfg, cache)
        if res is not None:
            runs.append(res)
    if not runs:
        raise RuntimeError(f"{w.name}: no process completed")

    for r in runs:
        checks.check("diagnostics byte-identical to the cold-cache run",
                     r["diag_sha"] is not None and r["diag_sha"] == ref["diag_sha"])
        checks.check("warm run compiles no plan", r["plans"]["compiled"] == 0,
                     f"compiled {r['plans']['compiled']}")
    if ref["serial_diag_sha"] is not None:
        checks.check("process:2 diagnostics byte-identical to serial",
                     ref["diag_sha"] == ref["serial_diag_sha"])

    segment_medians = [median(seg) for r in runs for seg in r["segments_ms"]]
    samples = [s for r in runs for seg in r["segments_ms"] for s in seg]
    step = _quietest("ms", segment_medians, len(samples))
    e2e = {
        "setup_s": _quietest("s", [r["t_ready"] - r["t_spawn"] for r in runs]),
        "run_wall_s": _quietest("s", [t for r in runs for t in r["run_walls_s"]]),
        "step_ms": step,
        "cell_updates_per_s": _throughput(w.cells, step),
        "peak_rss_mb": _median_of("MiB", [r["peak_rss_mb"] for r in runs]),
    }
    detail = {
        "kernel_tier": runs[0]["kernel_tier"],
        "cold_setup_s": ref["cold_setup_s"],
        "launch_to_result_s": [r["t_done"] - r["t_spawn"] for r in runs],
        "interpreter_start_s": median([r["t_enter"] - r["t_spawn"] for r in runs]),
        "import_s": median([r["import_s"] for r in runs]),
        "cold_plans": ref["cold_plans"],
        "warm_plans": runs[0]["plans"],
    }
    return e2e, detail


def _serve_cfg(w: Workload, budget: float, seed: int, root: Path, cache: Path,
               traced: bool) -> dict:
    return {
        "workload": w.name,
        "pass_id": f"{w.name}:{'layers' if traced else 'end_to_end'}",
        "scenario": w.scenario,
        "overrides": w.overrides,
        "run_steps": w.run_steps,
        "cache": str(cache),
        "root": str(root / ("stores-traced" if traced else "stores")),
        "seed": seed,
        "traced": traced,
        "energy_tol": w.energy_tol,
        "setups": 1 if traced else w.setups,
        "burst_seconds": budget,
        "burst_jobs": 3,
        "loop_jobs": 4,
    }


def _serve_end_to_end(w, budget, seed, root, cache, ref, checks):
    cfg = _serve_cfg(w, budget, seed, root, cache, traced=False)
    res = _child(checks, "serve_child.py", cfg, cache)
    if res is None:
        raise RuntimeError(f"{w.name}: the serve process did not complete")
    # every served job is one block of run_steps steps
    step = _quietest("ms", res["job_step_ms"], w.run_steps * len(res["job_step_ms"]))
    e2e = {
        "setup_s": _quietest("s", res["setup_s"]),
        "run_wall_s": _quietest("s", res["burst_walls_s"]),
        "step_ms": step,
        "cell_updates_per_s": _throughput(w.cells, step),
        "peak_rss_mb": _median_of("MiB", [res["peak_rss_mb"]]),
    }
    detail = dict(res["detail"], kernel_tier=res["kernel_tier"], workers=res["workers"],
                  cold_setup_s=ref["cold_setup_s"], layers=res["layers"],
                  cold_plans=ref["cold_plans"], warm_plans=res["warm_plans"])
    detail.pop("self_seconds", None)
    return e2e, detail


# ---------------------------------------------------------------------- #
def layers(
    w: Workload, seconds: float, seed: int, root: Path, checks: Checks
) -> Tuple[Dict[str, dict], dict, List[dict]]:
    """The traced pass: ``(per-layer metrics, detail, harness spans)``."""
    cache = root / "cache-layers"
    cfg = {
        "workload": w.name,
        "pass_id": f"{w.name}:layers",
        "scenario": w.scenario,
        "overrides": w.overrides,
        "cache": str(cache),
        "cells": w.cells,
        "sharded": "backend" in w.overrides,
        "reps": max(8, min(200, 70000 // w.cells)),
        "segment_steps": w.segment_steps,
        "segment_seconds": seconds * w.share / 6,
        "run_steps": max(w.run_steps // 2, 2),
        "checkpoint_interval": w.checkpoint_interval,
    }
    measured: Dict[str, float] = {}
    detail: dict = {}
    spans: List[dict] = []
    cold = _child(checks, "layers_child.py",
                  dict(cfg, cold_only=True, outdir=str(root / "layers-cold")), cache)
    if cold is not None:
        measured.update({k: cold["metrics"][k] for k in _COLD_KEYS})
        measured["runtime.cold_setup_s"] = cold["t_ready"] - cold["t_spawn"]
        measured["engine.cache_bytes"] = dir_bytes(cache)
        spans += cold["spans"]
    warm = _child(checks, "layers_child.py",
                  dict(cfg, cold_only=False, outdir=str(root / "layers-warm")), cache)
    if warm is not None:
        measured.update(warm["metrics"])
        detail.update(warm["detail"])
        spans += warm["spans"]
    if w.name == SERVE:
        scfg = _serve_cfg(w, seconds * w.share / 6, seed, root, cache, traced=True)
        res = _child(checks, "serve_child.py", scfg, cache)
        if res is not None:
            measured.update(res["layers"])
            detail["serve"] = res["detail"]
            spans += res["spans"]

    out: Dict[str, dict] = {}
    for pl in PER_LAYER:
        applies = w.name in pl.on
        if pl.name in measured:
            value = measured[pl.name]
        else:
            if applies:
                checks.check(f"layer metric {pl.name} measured", False)
            # a layer this workload never calls: the measured wall of zero
            # calls for a timing, a literal zero for counts, bytes, ratios
            scale = TIME_UNITS.get(pl.unit)
            value = timer_floor(scale) if scale else 0
        out[pl.name] = {"value": value, "unit": pl.unit, "applies": applies}
    return out, detail, spans
