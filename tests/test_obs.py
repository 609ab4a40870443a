"""Observability: metrics registry, span tracer, ring transport, driver
integration, CLI report — everything except the sharded legs (those live in
``test_obs_shard.py`` behind the ``shard`` marker)."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.obs import (
    OBS,
    SLOT,
    SLOT_NAMES,
    MetricsRegistry,
    chrome_trace,
    merge_snapshots,
)
from repro.obs.metrics import HIST_NAMES
from repro.obs.report import (
    load_metrics,
    load_trace,
    phase_breakdown,
    render_report,
    top_plans,
)
from repro.obs.ring import ObsChannel
from repro.obs.tracer import SpanTracer, base_name
from repro.runtime import Driver, SpecError, build, build_app
from repro.runtime._fmt import format_bytes, format_ms, render_table
from repro.runtime.cli import main
from repro.runtime.spec import ObservabilitySpec


@pytest.fixture(autouse=True)
def _obs_sandbox(monkeypatch):
    """Neutralize ``$REPRO_OBS`` (the CI trace leg sets it suite-wide) so
    every test here controls the mode explicitly, and leave the global
    runtime off for whoever runs next."""
    monkeypatch.delenv("REPRO_OBS", raising=False)
    yield
    OBS.configure("off")


# --------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------- #
def test_registry_slots_cover_schema():
    reg = MetricsRegistry()
    assert reg.values.shape == (len(SLOT_NAMES),)
    reg.add("steps")
    reg.add("rhs_ms", 2.5)
    snap = reg.snapshot()
    assert snap["steps"] == 1.0 and snap["rhs_ms"] == 2.5
    reg.reset()
    assert not any(reg.snapshot().values())


def test_registry_rejects_wrong_buffer():
    with pytest.raises(ValueError):
        MetricsRegistry(np.zeros(3))


def test_gauge_is_high_water():
    reg = MetricsRegistry()
    reg.gauge_max("scratch_bytes", 100.0)
    reg.gauge_max("scratch_bytes", 40.0)
    assert reg.snapshot()["scratch_bytes"] == 100.0


def test_step_histogram_buckets():
    reg = MetricsRegistry()
    for ms in (0.5, 2.0, 2.9, 250.0, 5000.0):
        reg.observe_step_ms(ms)
    snap = reg.snapshot()
    assert snap["step_ms_le_1"] == 1.0
    assert snap["step_ms_le_3"] == 2.0
    assert snap["step_ms_le_300"] == 1.0
    assert snap["step_ms_gt_1000"] == 1.0
    assert sum(snap[name] for name in HIST_NAMES) == 5.0


def test_merge_sums_counters_maxes_gauges():
    a = {"steps": 2.0, "halo_bytes": 10.0, "scratch_bytes": 5.0}
    b = {"steps": 3.0, "halo_bytes": 1.0, "scratch_bytes": 9.0}
    merged = merge_snapshots([a, b])
    assert merged["steps"] == 5.0
    assert merged["halo_bytes"] == 11.0
    assert merged["scratch_bytes"] == 9.0  # gauge: max, not sum
    assert merged["rhs_calls"] == 0.0  # missing keys default to zero


# --------------------------------------------------------------------- #
# span tracer + chrome export
# --------------------------------------------------------------------- #
def test_tracer_interns_and_resolves():
    tr = SpanTracer()
    a = tr.label_id("rhs")
    assert tr.label_id("rhs") == a  # interned
    tr.record(a, 1.0, 2.0)
    tr.record_name("step", 0.5)
    events = tr.resolved(pid=7, tid=0)
    assert events[0] == (7, 0, "rhs", 1.0, 2.0)
    assert events[1][2] == "step" and events[1][4] >= events[1][3]


def test_tracer_bounds_memory():
    tr = SpanTracer(capacity=2)
    lid = tr.label_id("x")
    for _ in range(5):
        tr.record(lid, 0.0, 1.0)
    assert len(tr.events) == 2 and tr.dropped == 3


def test_base_name_strips_digest():
    assert base_name("plan_apply:ab12cd") == "plan_apply"
    assert base_name("rhs") == "rhs"


def test_chrome_trace_layout():
    events = [(1, 0, "rhs", 10.0, 10.5), (2, 0, "rhs", 10.1, 10.2)]
    doc = chrome_trace(events, origin=10.0, process_names={1: "driver"})
    metas = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    assert {m["pid"]: m["args"]["name"] for m in metas} == {1: "driver", 2: "pid-2"}
    assert spans[0]["ts"] == pytest.approx(0.0)
    assert spans[0]["dur"] == pytest.approx(0.5e6)
    assert spans[1]["ts"] == pytest.approx(0.1e6)
    assert doc["displayTimeUnit"] == "ms"


# --------------------------------------------------------------------- #
# shared-memory ring transport
# --------------------------------------------------------------------- #
def test_ring_push_drain_roundtrip():
    buf = np.zeros(ObsChannel.length(capacity=4))
    writer = ObsChannel(buf, capacity=4)
    reader = ObsChannel(buf, capacity=4)
    writer.push(0, 1.0, 2.0)
    writer.push(1, 2.0, 3.0)
    records, lost = reader.drain()
    assert records == [(0, 1.0, 2.0), (1, 2.0, 3.0)] and lost == 0
    records, lost = reader.drain()
    assert records == [] and lost == 0


def test_ring_wraparound_counts_lost():
    buf = np.zeros(ObsChannel.length(capacity=4))
    writer = ObsChannel(buf, capacity=4)
    reader = ObsChannel(buf, capacity=4)
    for i in range(7):  # 3 more than capacity, never drained
        writer.push(i, float(i), float(i) + 0.5)
    records, lost = reader.drain()
    assert lost == 3
    assert [r[0] for r in records] == [3, 4, 5, 6]  # the surviving tail


def test_ring_metrics_slice_is_shared():
    buf = np.zeros(ObsChannel.length(capacity=4))
    writer = ObsChannel(buf, capacity=4)
    reader = ObsChannel(buf, capacity=4)
    writer.metrics.add("rhs_calls", 3.0)
    assert reader.metrics.snapshot()["rhs_calls"] == 3.0


def test_ring_rejects_wrong_buffer():
    with pytest.raises(ValueError):
        ObsChannel(np.zeros(10), capacity=4)


# --------------------------------------------------------------------- #
# the global runtime switch
# --------------------------------------------------------------------- #
def test_off_mode_records_nothing():
    OBS.configure("off")
    elapsed = OBS.finish("rhs", time.perf_counter(), SLOT["rhs_calls"])
    assert elapsed >= 0.0
    assert OBS.metrics.snapshot()["rhs_calls"] == 0.0
    assert OBS.tracer.events == []


def test_summary_mode_counts_without_spans():
    OBS.configure("summary")
    OBS.finish("rhs", time.perf_counter(), SLOT["rhs_calls"], SLOT["rhs_ms"])
    snap = OBS.metrics.snapshot()
    assert snap["rhs_calls"] == 1.0 and snap["rhs_ms"] >= 0.0
    assert OBS.tracer.events == []  # spans only in trace mode


def test_trace_mode_records_spans_and_sampling():
    OBS.configure("trace", sample=2)
    OBS.begin_step(0)
    assert OBS.trace_on
    OBS.finish("step", time.perf_counter(), SLOT["steps"])
    OBS.begin_step(1)
    assert not OBS.trace_on  # skipped by sampling
    OBS.finish("step", time.perf_counter(), SLOT["steps"])
    assert len(OBS.tracer.events) == 1
    assert OBS.metrics.snapshot()["steps"] == 2.0  # metrics stay exact


def test_configure_rejects_unknown_mode():
    with pytest.raises(ValueError):
        OBS.configure("verbose")


def test_env_override_rejects_garbage(monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "everything")
    with pytest.raises(ValueError):
        build_app(build("two_stream", nx=4, nv=8, steps=1))


# --------------------------------------------------------------------- #
# spec surface
# --------------------------------------------------------------------- #
def test_observability_spec_roundtrip():
    spec = ObservabilitySpec(mode="trace", sample=3, trace_path="t.json")
    again = ObservabilitySpec.from_dict(spec.to_dict(), "observability")
    assert again == spec


def test_observability_spec_rejects_unknowns_and_bad_values():
    with pytest.raises(SpecError):
        ObservabilitySpec.from_dict({"verbosity": 3}, "observability")
    with pytest.raises(SpecError):
        ObservabilitySpec.from_dict({"trace_path": 7}, "observability")
    with pytest.raises(SpecError):
        ObservabilitySpec(mode="loud").validate("observability")
    with pytest.raises(SpecError):
        ObservabilitySpec(sample=0).validate("observability")


def test_dotted_override_reaches_observability():
    spec = build(
        "two_stream", nx=4, nv=8, **{"observability.mode": "summary"}
    )
    assert spec.observability.mode == "summary"
    assert spec.to_dict()["observability"]["mode"] == "summary"


# --------------------------------------------------------------------- #
# driver integration (serial)
# --------------------------------------------------------------------- #
def test_driver_off_by_default(tmp_path):
    driver = Driver(build("two_stream", nx=4, nv=8, steps=2), outdir=tmp_path)
    result = driver.run()
    assert not OBS.on
    assert "obs" not in result
    assert not (tmp_path / "metrics.jsonl").exists()
    assert not (tmp_path / "trace.json").exists()


def test_driver_summary_counts_the_run(tmp_path):
    spec = build(
        "two_stream", nx=4, nv=8, steps=3,
        **{"observability.mode": "summary"},
    )
    driver = Driver(spec, outdir=tmp_path)
    result = driver.run()
    obs = result["obs"]
    assert obs["mode"] == "summary"
    metrics = obs["metrics"]
    assert metrics["steps"] == 3.0
    assert metrics["rk_stages"] == 9.0  # SSP-RK3: three stages per step
    assert metrics["rhs_calls"] == 9.0  # one coupled RHS per stage
    assert metrics["plan_applies"] > 0
    assert metrics["plan_compiled"] + metrics["plan_hydrated"] > 0
    assert metrics["scratch_bytes"] > 0
    assert sum(metrics[name] for name in HIST_NAMES) == 3.0
    assert obs["steps_per_s"] > 0

    records = load_metrics(tmp_path / "metrics.jsonl")
    assert records and records[-1]["metrics"]["steps"] == 3.0
    assert not (tmp_path / "trace.json").exists()  # summary: no spans


def test_driver_trace_writes_chrome_trace(tmp_path):
    spec = build(
        "two_stream", nx=4, nv=8, steps=2,
        **{"observability.mode": "trace"},
    )
    Driver(spec, outdir=tmp_path).run()
    doc = json.loads((tmp_path / "trace.json").read_text())
    spans = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
    names = {ev["name"] for ev in spans}
    assert {"step", "rk_stage", "rhs", "plan_compile", "diagnostics"} <= names
    assert any(name.startswith("plan_apply:") for name in names)
    metas = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
    assert any(m["args"]["name"] == "driver" for m in metas)
    assert all(ev["dur"] >= 0.0 and ev["ts"] >= 0.0 for ev in spans)
    assert len([ev for ev in spans if ev["name"] == "step"]) == 2


@pytest.mark.parametrize(
    "scenario, fields",
    [
        ("ion_acoustic", 0),  # two species, Poisson: nothing to project
        ("weibel_2x2v", 1),  # one species and the Maxwell field
    ],
)
def test_traced_run_names_the_projection(tmp_path, scenario, fields):
    spec = build(
        scenario, nx=4, nv=6, poly_order=1, steps=1,
        **{"observability.mode": "trace"},
    )
    Driver(spec, outdir=tmp_path).run()
    events = load_trace(tmp_path / "trace.json")
    spans = [ev for ev in events if ev[2] == "systems.project_initial"]
    assert len(spans) == len(spec.species) + fields


def test_trace_sampling_thins_spans_not_counters(tmp_path):
    spec = build(
        "two_stream", nx=4, nv=8, steps=4,
        **{"observability.mode": "trace", "observability.sample": 2},
    )
    result = Driver(spec, outdir=tmp_path).run()
    assert result["obs"]["metrics"]["steps"] == 4.0  # counters exact
    events = load_trace(tmp_path / "trace.json")
    step_spans = [ev for ev in events if ev[2] == "step"]
    assert len(step_spans) == 2  # steps 0 and 2 sampled


def test_env_var_turns_tracing_on(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_OBS", "trace")
    driver = Driver(build("two_stream", nx=4, nv=8, steps=1), outdir=tmp_path)
    result = driver.run()
    assert result["obs"]["mode"] == "trace"
    assert (tmp_path / "trace.json").exists()


def test_custom_metrics_path(tmp_path):
    mpath = tmp_path / "custom" / "m.jsonl"
    spec = build(
        "two_stream", nx=4, nv=8, steps=1,
        **{
            "observability.mode": "summary",
            "observability.metrics_path": str(mpath),
        },
    )
    Driver(spec, outdir=tmp_path).run()
    assert load_metrics(mpath)
    assert not (tmp_path / "metrics.jsonl").exists()


# --------------------------------------------------------------------- #
# wall-clock budget (checked every step)
# --------------------------------------------------------------------- #
def test_tiny_budget_stops_within_a_step(tmp_path):
    spec = build("two_stream", nx=4, nv=8, t_end=1e6)
    driver = Driver(spec, outdir=tmp_path, wall_clock_budget=0.05)
    t0 = time.perf_counter()
    result = driver.run()
    elapsed = time.perf_counter() - t0
    assert result["status"] == "budget_exhausted"
    # the deadline is re-checked every iteration, so a 50 ms budget can
    # overshoot by at most one step (plus the final checkpoint), never by
    # an unbounded amount
    assert elapsed < 5.0
    assert result["steps"] < 1000
    assert (tmp_path / "checkpoint.npz").exists()


# --------------------------------------------------------------------- #
# crash durability: streams flushed per record, fsynced on exit
# --------------------------------------------------------------------- #
def test_interrupt_leaves_parseable_streams(tmp_path):
    spec = build(
        "two_stream", nx=4, nv=8, steps=50, t_end=1e6,
        **{"observability.mode": "summary", "diagnostics.energy_interval": 1},
    )
    driver = Driver(spec, outdir=tmp_path)
    real_step = driver.app.step
    calls = {"n": 0}

    def interrupted_step(dt):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt
        return real_step(dt)

    driver.app.step = interrupted_step
    with pytest.raises(KeyboardInterrupt):
        driver.run()
    assert driver._stream is None and driver._metrics_stream is None
    for name in ("diagnostics.jsonl", "metrics.jsonl"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines, f"{name} is empty"
        for line in lines:
            json.loads(line)  # every line fully written
    # the finally block recorded a final cumulative metrics snapshot
    assert load_metrics(tmp_path / "metrics.jsonl")[-1]["metrics"]["steps"] == 3.0


def test_killed_subprocess_leaves_parseable_streams(tmp_path):
    """SIGKILL a traced run mid-flight: per-record flushes mean every
    complete line on disk parses (the torn final line, if the kill lands
    mid-write, is the only thing allowed to be unterminated)."""
    script = """
import sys
sys.path.insert(0, {src!r})
from repro.runtime import Driver, build
spec = build(
    "two_stream", nx=4, nv=8, t_end=1e6,
    **{{"observability.mode": "summary", "diagnostics.energy_interval": 1}},
)
Driver(spec, outdir={outdir!r}).run()
""".format(src=str(Path(__file__).resolve().parents[1] / "src"),
           outdir=str(tmp_path))
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)
    proc = subprocess.Popen([sys.executable, "-c", script], env=env)
    metrics = tmp_path / "metrics.jsonl"
    diagnostics = tmp_path / "diagnostics.jsonl"
    deadline = time.time() + 60.0
    try:
        while time.time() < deadline:
            if diagnostics.exists() and diagnostics.stat().st_size > 0:
                break
            if proc.poll() is not None:
                pytest.fail(f"run exited early with {proc.returncode}")
            time.sleep(0.05)
        else:
            pytest.fail("run never produced diagnostics output")
        time.sleep(0.2)  # let a few more records land
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert diagnostics.read_text(), "no diagnostics survived the kill"
    for path in (diagnostics, metrics):
        if not path.exists():
            continue
        text = path.read_text()
        lines = text.splitlines()
        complete = lines if text.endswith("\n") else lines[:-1]
        for line in complete:
            json.loads(line)


# --------------------------------------------------------------------- #
# offline report
# --------------------------------------------------------------------- #
_EVENTS = [
    (1, 0, "step", 0.0, 1.0),
    (1, 0, "rk_stage", 0.0, 0.6),
    (1, 0, "rhs", 0.1, 0.5),
    (1, 0, "plan_apply:aaa", 0.1, 0.3),
    (1, 0, "plan_apply:bbb", 0.3, 0.4),
]


def test_phase_breakdown_subtracts_children():
    phases = phase_breakdown(_EVENTS)
    assert phases["step"] == (1, pytest.approx(1.0), pytest.approx(0.4))
    assert phases["rk_stage"] == (1, pytest.approx(0.6), pytest.approx(0.2))
    assert phases["rhs"] == (1, pytest.approx(0.4), pytest.approx(0.1))
    # both plans fold into one phase; nothing nests inside them
    assert phases["plan_apply"] == (2, pytest.approx(0.3), pytest.approx(0.3))


def test_self_time_isolated_per_row():
    """Overlapping spans on different (pid, tid) rows never nest."""
    events = [(1, 0, "rhs", 0.0, 1.0), (2, 0, "rhs", 0.2, 0.8)]
    phases = phase_breakdown(events)
    assert phases["rhs"] == (2, pytest.approx(1.6), pytest.approx(1.6))


def test_top_plans_orders_by_self_time():
    plans = top_plans(_EVENTS)
    assert [(d, c) for d, c, _ in plans] == [("aaa", 1), ("bbb", 1)]
    assert plans[0][2] == pytest.approx(0.2)
    assert top_plans(_EVENTS, n=1) == plans[:1]


def test_render_report_end_to_end(tmp_path):
    spec = build(
        "two_stream", nx=4, nv=8, steps=2,
        **{"observability.mode": "trace"},
    )
    drv = Driver(spec, outdir=tmp_path)
    drv.run()
    text = render_report(tmp_path)
    assert "phases" in text and "metrics" in text
    assert "rk_stage" in text and "steps_per_s" in text
    assert re.search(r"cell_threads +1\n", text)  # two_stream's loops: one thread
    # one Vlasov RHS is one span of the species' cell program, attributed
    # like any plan
    (solver,) = drv.app.solvers.values()
    label, digest = solver._program.obs_label.split(":")
    assert label == "plan_apply" and len(digest) == 12 and digest in text
    # the between-step driver work is attributed, not one unnamed remainder
    for phase in ("driver.suggested_dt", "driver.energy", "driver.stream_flush"):
        assert phase in text


def test_render_report_requires_output(tmp_path):
    with pytest.raises(FileNotFoundError):
        render_report(tmp_path / "nothing")


# --------------------------------------------------------------------- #
# CLI surface
# --------------------------------------------------------------------- #
def test_cli_run_trace_then_report(capsys, tmp_path):
    assert main([
        "run", "two_stream", "--trace",
        "--set", "steps=2", "--set", "nx=4", "--set", "nv=8",
        "--outdir", str(tmp_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "trace" in out
    assert (tmp_path / "trace.json").exists()
    assert main(["report", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert "phases" in report and "plan_apply" in report


def test_cli_report_missing_outdir_fails(capsys, tmp_path):
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "no such run directory" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# the shared table renderer (used by `repro plans list` and `repro report`)
# --------------------------------------------------------------------- #
def test_render_table_golden():
    out = render_table(
        [("alpha", "12", "3.4"), ("b", "7", "100")],
        header=("name", "n", "ms"),
        indent="  ",
    )
    assert out == (
        "  name    n   ms\n"
        "  -----  --  ---\n"
        "  alpha  12  3.4\n"
        "  b       7  100"
    )


def test_render_table_alignment_rules():
    # mixed column stays left-aligned; explicit align overrides detection
    out = render_table([("a", "1"), ("bb", "x2")])
    assert out == "a   1\nbb  x2"
    out = render_table([("a", "1"), ("bb", "2")], align=("<", "<"))
    assert out == "a   1\nbb  2"
    assert render_table([]) == ""


def test_format_helpers():
    assert format_ms(0.123) == "0.12"
    assert format_ms(12.34) == "12.3"
    assert format_ms(1234.5) == "1234"
    assert format_bytes(512) == "512B"
    assert format_bytes(2048) == "2.0KiB"
    assert format_bytes(3 * 1024**2) == "3.0MiB"


def test_plans_list_uses_shared_table(capsys, tmp_path):
    cache = tmp_path / "plans"
    assert main([
        "plans", "warm", "free_streaming", "--cache", str(cache),
        "--set", "nx=4", "--set", "nv=8",
    ]) == 0
    capsys.readouterr()
    assert main(["plans", "list", "--cache", str(cache)]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("  ")]
    assert lines, "no table rows printed"
    # aligned columns: every row's digest column starts at the same offset
    starts = {len(ln) - len(ln.lstrip()) for ln in lines}
    assert starts == {2}
