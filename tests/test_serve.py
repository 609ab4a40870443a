"""repro.serve: content-hash dedup, lease crash recovery, HTTP streaming.

Covers the serving-layer acceptance invariants end to end:

* the canonical spec digest ignores execution strategy (backend, kernel
  tier, observability) but not physics;
* submitting the same spec twice runs exactly one simulation — the second
  response is ``cached`` (finished) or ``attached`` (in flight), including
  under concurrent submission from many threads;
* the streamed ``/jobs/<id>/diagnostics`` body is byte-identical to the
  on-disk ``diagnostics.jsonl``;
* a SIGKILLed worker's lease goes stale and its job is re-run exactly
  once by another worker, with byte-identical diagnostics;
* SIGTERM drains the daemon without losing or double-running leased jobs;
* a submission wakes an idle worker, drain wakes every worker, and the
  service metrics are current when asked — none waits out an interval;
* ``repro report`` fails with an actionable message (not a traceback) on
  missing or still-running output directories;
* lease timeouts are validated wherever they are configurable.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.dist.lease import LeaseLock, validate_lease_timeout
from repro.runtime.cli import main
from repro.runtime.scenarios import build
from repro.serve import scheduler
from repro.serve import (
    FileJobStore,
    ServeClient,
    ServeDaemon,
    ServeError,
    canonical_spec_dict,
    spec_digest,
    worker_loop,
)

pytestmark = pytest.mark.serve

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: tiny spec: finishes in well under a second
FAST = dict(steps=2, nx=6, nv=6, poly_order=1)
#: slow enough to be observed (and killed) mid-run
SLOW = dict(steps=400, nx=16, nv=16, poly_order=1)


def fast_spec(**extra):
    return build("free_streaming", **{**FAST, **extra})


def slow_spec(**extra):
    return build("free_streaming", **{**SLOW, **extra})


def wait_until(predicate, timeout=30.0, poll=0.05, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(poll)
    raise AssertionError(f"timed out after {timeout:g}s waiting for {what}")


@pytest.fixture
def daemon(tmp_path):
    d = ServeDaemon(tmp_path / "srv", workers=1)
    d.start()
    yield d
    d.drain(timeout=60.0)


# ---------------------------------------------------------------------- #
# content hashing
# ---------------------------------------------------------------------- #
def test_spec_digest_ignores_execution_strategy():
    spec = fast_spec()
    base = spec_digest(spec)
    # stable, and identical through a dict round-trip
    assert spec_digest(spec) == base
    assert spec_digest(spec.to_dict()) == base
    # execution strategy is not identity
    d = spec.to_dict()
    d["backend"] = "process:2"
    d["observability"] = {**d["observability"], "mode": "trace"}
    assert spec_digest(d) == base
    # output placement is not identity
    d2 = spec.to_dict()
    d2["diagnostics"] = {
        **d2["diagnostics"],
        "stream_path": "elsewhere.jsonl",
        "checkpoint_path": "ck.npz",
    }
    assert spec_digest(d2) == base
    # physics *is* identity
    assert spec_digest(fast_spec(steps=3)) != base
    assert spec_digest(fast_spec(nx=8)) != base
    # and the hashed dict carries no execution-strategy keys at all
    canon = canonical_spec_dict(spec)
    for key in ("backend", "plan_mode", "plan_cache", "observability"):
        assert key not in canon


def test_spec_digest_is_stable_across_the_plan_mode_removal():
    """Dedup keys must not move: specs stored by the parent commit carry a
    ``plan_mode`` key, and the digest below was computed there."""
    spec = fast_spec()
    pinned = "8b0cde614a1eeea2fdf24f22da18bd314f691b1caf7b817642c6f30e82887599"
    assert spec_digest(spec) == pinned
    for legacy in ("fused", "interpreted"):
        assert spec_digest({**spec.to_dict(), "plan_mode": legacy}) == pinned
    # likewise the deleted ``threaded`` backend value some stored specs name
    assert spec_digest({**spec.to_dict(), "backend": "threaded:2"}) == pinned


# ---------------------------------------------------------------------- #
# job store lifecycle
# ---------------------------------------------------------------------- #
def test_store_submit_dedup_states(tmp_path):
    store = FileJobStore(tmp_path, lease_timeout=5.0)
    spec = fast_spec()
    rec, compute = store.submit(spec)
    assert compute == "scheduled"
    assert rec["status"] == "queued" and rec["submits"] == 1
    assert rec["id"] == spec_digest(spec)
    # identical resubmission attaches to the queued job
    rec2, compute2 = store.submit(spec)
    assert compute2 == "attached"
    assert rec2["id"] == rec["id"] and rec2["submits"] == 2
    # once finished, resubmission is a cache hit
    store.finish(rec["id"], {"ok": True}, None)
    rec3, compute3 = store.submit(spec)
    assert compute3 == "cached" and rec3["result"] == {"ok": True}
    # a failed job is re-queued on explicit resubmission
    store.finish(rec["id"], None, "ValueError: boom")
    rec4, compute4 = store.submit(spec)
    assert compute4 == "requeued"
    assert rec4["status"] == "queued"
    assert rec4["error"] is None and rec4["last_error"] == "ValueError: boom"


def test_store_claim_is_exclusive(tmp_path):
    store = FileJobStore(tmp_path, lease_timeout=5.0)
    rec, _ = store.submit(fast_spec())
    lock = store.try_claim(rec["id"], "worker-a")
    assert lock is not None
    try:
        assert store.get(rec["id"])["status"] == "running"
        # a live lease never yields to a second claimant
        assert store.try_claim(rec["id"], "worker-b") is None
    finally:
        lock.release()
    # terminal jobs are not claimable even with the lease free
    store.finish(rec["id"], {"ok": True}, None)
    assert store.try_claim(rec["id"], "worker-c") is None
    assert store.claims_log.read_text().count("\n") == 1


def test_a_damaged_job_record_does_not_stop_the_queue(tmp_path):
    """A truncated ``job.json`` (or one naming another job) counts as no
    record: the listing skips it, an idle worker exits, and resubmitting its
    spec schedules the job again and runs it."""
    store = FileJobStore(tmp_path, lease_timeout=5.0)
    spec = fast_spec()
    rec, _ = store.submit(spec)
    meta = store.job_dir(rec["id"]) / "job.json"
    other = fast_spec(steps=3)
    for damaged in (meta.read_text()[:40], json.dumps({**rec, "id": spec_digest(other)})):
        meta.write_text(damaged)
        assert store.list_jobs() == [] and store.get(rec["id"]) is None
        assert worker_loop(tmp_path, lease_timeout=5.0, exit_when_idle=True) == {
            "ran": [], "failed": []
        }
    rec2, compute = store.submit(spec)
    assert compute == "scheduled" and rec2["id"] == rec["id"]
    assert worker_loop(tmp_path, lease_timeout=5.0, exit_when_idle=True)["ran"] == [rec["id"]]
    assert store.get(rec["id"])["status"] == "done"


def test_a_diverging_job_fails_naming_the_status(tmp_path):
    """A run that ends ``diverged`` (cfl=2 blows weibel up within a few
    hundred steps) finishes its job ``failed``, with no result."""
    store = FileJobStore(tmp_path, lease_timeout=5.0)
    rec, _ = store.submit(build(
        "weibel_2x2v", nx=4, nv=6, poly_order=1, cfl=2.0, steps=1000, t_end=1e9
    ))
    assert worker_loop(tmp_path, lease_timeout=5.0, exit_when_idle=True) == {
        "ran": [], "failed": [rec["id"]]
    }
    done = store.get(rec["id"])
    assert done["status"] == "failed" and "diverged" in done["error"]
    assert not store.result_path(rec["id"]).exists()


# ---------------------------------------------------------------------- #
# HTTP end-to-end: dedup + byte-identical streaming
# ---------------------------------------------------------------------- #
def test_http_dedup_and_stream_byte_identity(daemon):
    client = ServeClient.from_dir(daemon.store.root)
    spec = fast_spec()
    first = client.submit(spec=spec)
    assert first["compute"] == "scheduled"
    result = client.result(first["job"], wait=True, timeout=120.0)
    assert result["steps"] == FAST["steps"]
    # second submission: zero compute, same job id
    second = client.submit(spec=spec)
    assert second["compute"] == "cached"
    assert second["job"] == first["job"]
    # exactly one simulation ran
    assert daemon.store.claims_log.read_text().count("\n") == 1
    assert daemon.store.get(first["job"])["attempts"] == 1
    # the streamed diagnostics equal the on-disk file, byte for byte
    streamed = b"".join(client.stream_diagnostics(first["job"]))
    on_disk = daemon.store.diagnostics_path(first["job"]).read_bytes()
    assert streamed == on_disk and len(on_disk) > 0
    # every streamed line is a complete JSON record
    records = [json.loads(l) for l in streamed.splitlines()]
    assert [r["step"] for r in records] == list(range(FAST["steps"] + 1))


def test_http_stream_while_running(daemon):
    """A stream opened while the job is still queued/running ends only at
    the terminal state and still matches the file byte for byte."""
    client = ServeClient.from_dir(daemon.store.root)
    sub = client.submit(spec=slow_spec())
    chunks = []
    t = threading.Thread(
        target=lambda: chunks.extend(client.stream_diagnostics(sub["job"])),
        daemon=True,
    )
    t.start()  # starts before the worker finishes (likely before it claims)
    client.result(sub["job"], wait=True, timeout=120.0)
    t.join(timeout=60.0)
    assert not t.is_alive()
    assert b"".join(chunks) == daemon.store.diagnostics_path(sub["job"]).read_bytes()


def test_http_errors(daemon):
    client = ServeClient.from_dir(daemon.store.root)
    with pytest.raises(ServeError, match="submit failed \\(400\\)"):
        client.submit(spec={"model": "no-such-model"})
    with pytest.raises(ServeError, match="404"):
        client.job("0" * 64)
    # result of a queued/running job is a 409 with its status, not an error
    sub = client.submit(spec=slow_spec(steps=500))
    data = client.result(sub["job"], wait=False)
    assert data["status"] in ("queued", "running")
    client.result(sub["job"], wait=True, timeout=120.0)


# ---------------------------------------------------------------------- #
# S3: concurrent duplicate submission
# ---------------------------------------------------------------------- #
def test_concurrent_submissions_create_one_job(daemon):
    n = 8
    spec_dict = fast_spec(steps=4).to_dict()
    results = [None] * n
    barrier = threading.Barrier(n)

    def hit(i):
        client = ServeClient.from_dir(daemon.store.root)
        barrier.wait()
        results[i] = client.submit(spec=spec_dict)

    threads = [threading.Thread(target=hit, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert all(r is not None for r in results)
    ids = {r["job"] for r in results}
    assert len(ids) == 1, f"dedup split into {len(ids)} jobs"
    job_id = ids.pop()
    assert sum(1 for r in results if r["compute"] == "scheduled") == 1
    assert {r["compute"] for r in results} <= {"scheduled", "attached", "cached"}
    client = ServeClient.from_dir(daemon.store.root)
    client.result(job_id, wait=True, timeout=120.0)
    # one job record, n recorded submissions, exactly one execution
    assert len(daemon.store.list_jobs()) == 1
    assert daemon.store.get(job_id)["submits"] == n
    wait_until(
        lambda: daemon.store.get(job_id)["attempts"] == 1,
        what="attempt count",
    )
    assert daemon.store.claims_log.read_text().count("\n") == 1


# ---------------------------------------------------------------------- #
# S6: SIGKILLed worker -> stale lease -> exactly-once re-run
# ---------------------------------------------------------------------- #
def test_sigkilled_worker_job_is_rerun_byte_identical(tmp_path):
    # 2000 steps: at the default t_end the job ends after ~100 steps, often
    # within one 50 ms check below, and is never seen mid-job
    spec = slow_spec(steps=2000, t_end=1e3)
    store = FileJobStore(tmp_path / "srv", lease_timeout=1.0)
    rec, _ = store.submit(spec)

    ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp
    victim = ctx.Process(
        target=worker_loop,
        args=(str(store.root),),
        kwargs=dict(lease_timeout=1.0, max_jobs=1),
    )
    victim.start()
    try:
        # let it claim and make visible progress, then SIGKILL mid-job
        wait_until(
            lambda: store.get(rec["id"])["status"] == "running"
            and store.diagnostics_path(rec["id"]).exists()
            and store.diagnostics_path(rec["id"]).stat().st_size > 0,
            what="victim worker mid-job",
        )
        os.kill(victim.pid, signal.SIGKILL)
    finally:
        victim.join(timeout=10.0)
    assert store.get(rec["id"])["status"] == "running"  # orphaned claim

    # a second worker breaks the stale lease (after ~lease_timeout) and
    # re-runs the job to completion
    out = worker_loop(store.root, lease_timeout=1.0, max_jobs=1)
    assert out["ran"] == [rec["id"]] and out["failed"] == []
    final = store.get(rec["id"])
    assert final["status"] == "done"
    assert final["attempts"] == 2
    claims = store.claims_log.read_text().splitlines()
    assert len(claims) == 2 and all(rec["id"] in line for line in claims)

    # the recovered output is byte-identical to an uninterrupted run
    from repro.runtime.driver import Driver

    ref_dir = tmp_path / "ref"
    driver = Driver(
        spec.with_overrides({"diagnostics": {"stream_path": None}}),
        outdir=ref_dir,
    )
    try:
        driver.run()
    finally:
        driver.close()
    assert (
        store.diagnostics_path(rec["id"]).read_bytes()
        == (ref_dir / "diagnostics.jsonl").read_bytes()
    )


# ---------------------------------------------------------------------- #
# a warm worker: plan payloads and kernels reused across jobs
# ---------------------------------------------------------------------- #
def test_a_warm_workers_second_job_is_bit_identical_to_a_fresh_process(tmp_path):
    """Two LBO jobs in one process: the second hydrates every plan (from
    the payload memo) and uses the registry's LBO bundle, and must end in
    the bits of a fresh process, whose memo and registry start empty."""
    store = FileJobStore(tmp_path / "srv")
    done = []
    for nu in (0.6, 0.7):
        rec, _ = store.submit(build("collisional_relaxation", nu=nu, steps=5))
        done.append((rec["id"], scheduler.run_job(store, rec)))
    job, second = done[1]
    assert second["plans"]["compiled"] == 0 and second["plans"]["hydrated"] == 19
    ref = tmp_path / "ref"
    subprocess.run(
        [
            sys.executable, "-m", "repro", "run", "collisional_relaxation",
            "--set", "nu=0.7", "--set", "steps=5", "--set", "plan_cache=off",
            "--outdir", str(ref),
        ],
        env={**os.environ, "PYTHONPATH": REPO_SRC},
        check=True,
        capture_output=True,
    )
    got = store.diagnostics_path(job).read_bytes()
    assert got == (ref / "diagnostics.jsonl").read_bytes()
    assert got != store.diagnostics_path(done[0][0]).read_bytes()  # nu is in the bits


# ---------------------------------------------------------------------- #
# SIGTERM drain (daemon subprocess, as deployed)
# ---------------------------------------------------------------------- #
def test_sigterm_drains_without_losing_leased_jobs(tmp_path):
    root = tmp_path / "srv"
    env = {**os.environ, "PYTHONPATH": REPO_SRC}
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(root),
            "--workers", "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    try:
        wait_until(lambda: (root / "serve.json").exists(), what="serve.json")
        client = ServeClient.from_dir(root)
        store = FileJobStore(root, lease_timeout=5.0)
        sub = client.submit(spec=slow_spec(steps=600))
        wait_until(
            lambda: store.get(sub["job"])["status"] == "running",
            what="job leased by a worker",
        )
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=120.0)
        assert rc == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10.0)
    # the leased job finished exactly once during the drain
    final = store.get(sub["job"])
    assert final["status"] == "done" and final["attempts"] == 1
    assert store.claims_log.read_text().count("\n") == 1
    # daemon cleaned up after itself and flushed a final metrics snapshot
    assert not (root / "serve.json").exists()
    records = [
        json.loads(line)
        for line in (root / "metrics.jsonl").read_text().splitlines()
    ]
    assert records[-1].get("final") is True
    assert records[-1]["metrics"]["jobs_completed"] == 1.0
    # ... readable by `repro report` (S2 + obs integration)
    assert main(["report", str(root)]) == 0


# ---------------------------------------------------------------------- #
# wake-ups: no served path waits out the idle interval
# ---------------------------------------------------------------------- #
@pytest.fixture
def idle_daemon(tmp_path, monkeypatch):
    """A daemon whose idle workers would rescan only once a minute: every
    deadline below is met by a wake-up or not at all."""
    monkeypatch.setattr(scheduler, "IDLE_WAIT_S", 60.0)
    d = ServeDaemon(tmp_path / "srv", workers=1).start()
    time.sleep(0.5)  # the worker found an empty store and waits
    yield d
    d.drain(timeout=10.0)


def test_a_submission_wakes_an_idle_worker(idle_daemon):
    client = ServeClient.from_dir(idle_daemon.store.root)
    sub = client.submit(spec=fast_spec())
    result = client.result(sub["job"], wait=True, timeout=30.0, poll=0.02)
    assert result["steps"] == FAST["steps"]
    rec = idle_daemon.store.get(sub["job"])
    assert rec["started"] - rec["submitted"] < 5.0


def test_drain_wakes_idle_workers(idle_daemon):
    t0 = time.monotonic()
    assert idle_daemon.drain(timeout=10.0)
    assert time.monotonic() - t0 < 5.0


def test_drain_does_not_wait_out_the_listener_poll(idle_daemon):
    # the stdlib listener checks for shutdown every 0.5 s by default
    t0 = time.monotonic()
    assert idle_daemon.drain(timeout=10.0)
    assert time.monotonic() - t0 < 0.25


def test_metrics_are_current_when_a_result_arrives(idle_daemon):
    client = ServeClient.from_dir(idle_daemon.store.root)
    sub = client.submit(spec=fast_spec())
    client.result(sub["job"], wait=True, timeout=30.0, poll=0.02)
    data = client.metrics()
    assert data["metrics"]["jobs_completed"] == 1
    assert data["metrics"]["queue_depth"] == 0
    assert data["jobs"]["done"] == 1
    # the changed snapshot was appended for `repro report`
    logged = (idle_daemon.store.root / "metrics.jsonl").read_text().splitlines()
    assert json.loads(logged[-1])["metrics"] == data["metrics"]


def test_draining_daemon_rejects_submissions(daemon):
    client = ServeClient.from_dir(daemon.store.root)
    daemon.draining = True
    try:
        with pytest.raises(ServeError, match="503"):
            client.submit(spec=fast_spec())
    finally:
        daemon.draining = False


# ---------------------------------------------------------------------- #
# S2: `repro report` on missing / still-running outdirs
# ---------------------------------------------------------------------- #
def test_report_missing_outdir_fails_cleanly(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "never-ran")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "no such run directory" in err and "never-ran" in err


def test_report_tolerates_partial_metrics_tail(tmp_path, capsys):
    outdir = tmp_path / "run"
    outdir.mkdir()
    full = {"time": 0.1, "metrics": {"steps": 3.0}}
    (outdir / "metrics.jsonl").write_text(
        json.dumps(full) + "\n" + json.dumps(full)[: 20]  # torn final line
    )
    assert main(["report", str(outdir)]) == 0
    assert "metrics" in capsys.readouterr().out


def test_report_incomplete_only_outdir_fails_cleanly(tmp_path, capsys):
    outdir = tmp_path / "run"
    outdir.mkdir()
    (outdir / "metrics.jsonl").write_text('{"time": 0.1, "metr')  # killed mid-write
    rc = main(["report", str(outdir)])
    assert rc == 2
    assert "no complete records" in capsys.readouterr().err


# ---------------------------------------------------------------------- #
# S1: configurable lease timeout, validated everywhere
# ---------------------------------------------------------------------- #
def test_lease_timeout_validation(tmp_path):
    assert validate_lease_timeout(1.0) == 1.0
    for bad in (0.0, -5.0, 0.01):
        with pytest.raises(ValueError, match="lease timeout"):
            validate_lease_timeout(bad)
    with pytest.raises(ValueError, match="lease timeout"):
        LeaseLock(tmp_path / "x.lock", timeout=0.01)
    with pytest.raises(ValueError):
        FileJobStore(tmp_path, lease_timeout=0.0)


def test_cli_rejects_bad_lease_timeout(tmp_path, capsys):
    for argv in (
        ["serve", str(tmp_path), "--lease-timeout", "0.01"],
        ["worker", str(tmp_path), "--lease-timeout", "0"],
    ):
        rc = main(argv)
        assert rc == 2, argv
        assert "--lease-timeout" in capsys.readouterr().err
    assert not (tmp_path / "serve.json").exists()


# ---------------------------------------------------------------------- #
# CLI verbs against a live daemon
# ---------------------------------------------------------------------- #
def test_cli_submit_and_jobs(daemon, capsys):
    root = str(daemon.store.root)
    overrides = [f"--set={k}={v}" for k, v in FAST.items()]
    rc = main(
        ["submit", "free_streaming", "--dir", root, *overrides, "--wait", "--json"]
    )
    assert rc == 0
    first = json.loads(capsys.readouterr().out)
    assert first["compute"] == "scheduled"
    assert first["result"]["steps"] == FAST["steps"]
    # resubmit: cache hit over the same CLI path
    rc = main(["submit", "free_streaming", "--dir", root, *overrides, "--json"])
    assert rc == 0
    second = json.loads(capsys.readouterr().out)
    assert second["compute"] == "cached" and second["job"] == first["job"]
    # listing
    rc = main(["jobs", "--dir", root, "--json"])
    assert rc == 0
    jobs = json.loads(capsys.readouterr().out)
    assert [j["id"] for j in jobs] == [first["job"]]
    assert jobs[0]["status"] == "done"


def test_cli_submit_without_daemon(tmp_path, capsys):
    rc = main(["submit", "free_streaming", "--dir", str(tmp_path)])
    assert rc == 2
    assert "no running daemon" in capsys.readouterr().err
