"""Sharded observability: worker spans surface with distinct pids, and
merged counters follow the per-worker model.  That tracing never perturbs
physics is the ``trace`` way of the matrix in ``test_golden_digests.py``."""

import json

import pytest

from repro.basis.multiindex import num_basis
from repro.cas.codegen import select_tier
from repro.dist import ShardPlan
from repro.obs import OBS
from repro.runtime import Driver, build

pytestmark = pytest.mark.shard


def _spec(mode, **extra):
    overrides = {"observability.mode": mode}
    overrides.update(extra)
    return build(
        "landau_damping", nx=4, nv=8, steps=3, t_end=1e6, **overrides
    )


@pytest.fixture(autouse=True)
def _obs_sandbox(monkeypatch):
    monkeypatch.delenv("REPRO_OBS", raising=False)
    yield
    OBS.configure("off")


def test_sharded_trace_rows_per_worker(tmp_path):
    driver = Driver(
        _spec("trace", backend="process:2"), outdir=tmp_path
    )
    try:
        result = driver.run()
    finally:
        driver.close()
    assert result["status"] == "max_steps"
    doc = json.loads((tmp_path / "trace.json").read_text())
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    metas = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    row_names = {m["args"]["name"] for m in metas}
    assert {"driver", "shard-0", "shard-1"} <= row_names
    pids = {ev["pid"] for ev in spans}
    assert len(pids) == 3  # the driver plus two distinct worker processes
    names = {ev["name"] for ev in spans}
    assert {"halo_exchange", "barrier_wait", "rk_stage", "rhs", "step"} <= names
    # worker spans carry worker pids, not the driver's
    driver_pid = next(m["pid"] for m in metas if m["args"]["name"] == "driver")
    worker_spans = [ev for ev in spans if ev["name"] == "halo_exchange"]
    assert worker_spans and all(ev["pid"] != driver_pid for ev in worker_spans)


def test_sharded_counters_follow_worker_model(tmp_path):
    serial = Driver(_spec("summary"), outdir=tmp_path / "serial").run()
    ser = serial["obs"]["metrics"]
    driver = Driver(
        _spec("summary", backend="process:2"), outdir=tmp_path / "proc"
    )
    try:
        sharded = driver.run()
        shr = sharded["obs"]["metrics"]
        # the driver alone counts steps; every worker does every RK stage
        # (and therefore every RHS) over its own block
        assert shr["steps"] == ser["steps"] == 3.0
        assert shr["rk_stages"] == 2 * ser["rk_stages"]
        assert shr["rhs_calls"] == 2 * ser["rhs_calls"]
        assert shr["halo_exchanges"] == shr["rk_stages"]
        assert shr["halo_bytes"] > 0
        assert shr["barrier_waits"] >= 2 * shr["rk_stages"]
        assert ser["halo_exchanges"] == 0  # serial runs have no halos
        # metrics survive close(): the final drain is snapshotted
        driver.close()
        assert driver.summary()["obs"]["metrics"]["steps"] == 3.0
    finally:
        driver.close()


@pytest.mark.parametrize("backend", ["numpy", "process:2"])
def test_counts_do_not_depend_on_the_mode(backend):
    """Plan, kernel, thread and halo counts are kept in every mode: off
    mode reads the workers' through their shared-memory channels alone,
    and a sharded run's halo doubles are the Fig. 3 model's."""
    spec = build(
        "weibel_2x2v", nx=4, nv=6, poly_order=1, steps=2, plan_cache="off",
        backend=backend,
    )
    # builds the C kernel in this process first, so both runs below load it
    Driver(spec.with_overrides({"backend": "numpy"})).run()
    seen = {}
    for mode in ("off", "summary"):
        driver = Driver(spec.with_overrides({"observability.mode": mode}))
        try:
            plans = driver.run()["plans"]
        finally:
            driver.close()
        plans.pop("compile_seconds")  # a time, not a count
        seen[mode] = (plans, getattr(driver.app, "halo_stats", None))
    assert seen["off"] == seen["summary"]
    plans, halo = seen["off"]
    assert plans["compiled"] > 0 and plans["kernels_failed"] == 0
    if select_tier() == "cc":
        assert plans["kernels_built"] + plans["kernels_loaded"] == plans["compiled"]
    if backend != "numpy":
        plan = ShardPlan.create(spec.conf_grid.cells, 2)
        per_exchange = plan.model_halo_doubles(num_basis(4, 1, "serendipity"), (6, 6))
        assert halo["f"]["doubles"] == per_exchange * 3 * spec.steps  # ssp-rk3
        assert halo["bytes"] == 8 * halo["doubles"] > 8 * halo["f"]["doubles"]


def test_sharded_metrics_stream_parses(tmp_path):
    driver = Driver(
        _spec("summary", backend="process:2"), outdir=tmp_path
    )
    try:
        driver.run()
    finally:
        driver.close()
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert lines
    final = json.loads(lines[-1])
    assert final["metrics"]["rhs_calls"] == 18.0  # 2 workers x 3 stages x 3
