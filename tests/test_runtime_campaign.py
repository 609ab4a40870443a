"""Campaigns on the one queue: a scan is a batch submit to the job store.

Scan expansion and validation, then the queue invariants with the campaign
as the submitter: resume / changed points / retry fall out of content
hashing, every job runs exactly once under concurrent workers, a crashed
claimant's job is recovered, and a campaign directory *is* a serve
directory (``repro worker`` and ``repro serve`` interoperate with it).
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import socket
import time
from collections import Counter

import pytest

from repro.dist.lease import LOCK_DIR, LeaseLock
from repro.runtime import (
    CampaignSpec,
    Driver,
    SpecError,
    build,
    expand_points,
    load_manifest,
    run_campaign,
)
from repro.runtime.cli import main
from repro.serve import FileJobStore, ServeClient, ServeDaemon, worker_loop

pytestmark = pytest.mark.serve

TINY = {"nx": 4, "nv": 8, "steps": 1, "t_end": 100.0}


def _campaign(**kwargs):
    data = {
        "name": "ts_scan",
        "scenario": "two_stream",
        "base": dict(TINY),
        "scan": {"drift": [1.5, 2.0], "vt": [0.4, 0.5]},
    }
    data.update(kwargs)
    return CampaignSpec.from_dict(data)


def _claims(outdir) -> Counter:
    """job digest -> number of times any worker claimed it."""
    lines = FileJobStore(outdir).claims_log.read_text().splitlines()
    return Counter(line.split()[0] for line in lines)


def _statuses(manifest):
    return [e["status"] for e in manifest["points"].values()]


# --------------------------------------------------------------------- #
# scan expansion + validation (no store involved)
# --------------------------------------------------------------------- #
def test_expand_points_grid_product():
    points = expand_points(_campaign())
    assert len(points) == 4
    assert {(p["drift"], p["vt"]) for p in points} == {
        (1.5, 0.4), (1.5, 0.5), (2.0, 0.4), (2.0, 0.5),
    }
    assert all(p["nx"] == 4 for p in points)  # base merged into every point


def test_expand_explicit_points_override_base():
    camp = _campaign(scan={}, points=[{"drift": 1.0}, {"nx": 6}])
    points = expand_points(camp)
    assert len(points) == 2
    assert points[0]["drift"] == 1.0 and points[0]["nx"] == 4
    assert points[1]["nx"] == 6


def test_campaign_spec_validation_errors():
    with pytest.raises(SpecError) as err:
        CampaignSpec.from_dict({"name": "x"})
    assert err.value.field == "campaign.scenario"
    with pytest.raises(SpecError) as err:
        CampaignSpec.from_dict({"scenario": "two_stream", "scan": {"drift": []}})
    assert err.value.field == "campaign.scan.drift"
    with pytest.raises(SpecError) as err:
        CampaignSpec.from_dict({"scenario": "two_stream", "workers": 0})
    assert err.value.field == "campaign.workers"


@pytest.mark.parametrize(
    "data, field",
    [
        # `points` used to win silently and the scan grid was dropped
        ({"scenario": "two_stream", "scan": {"drift": [1, 2]}, "points": [{"vt": 0.4}]},
         "campaign.points"),
        ({"scenario": 123}, "campaign.scenario"),
        ({"scenario": "two_stream", "name": ["x"]}, "campaign.name"),
    ],
)
def test_campaign_spec_rejects_dropped_or_mistyped_input(data, field, tmp_path, capsys):
    with pytest.raises(SpecError) as err:
        CampaignSpec.from_dict(data)
    assert err.value.field == field
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(data))
    assert main(["campaign", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the serialised form (empty scan beside points) still round-trips
    camp = _campaign(scan={}, points=[{"drift": 1.0}])
    assert CampaignSpec.from_dict(camp.to_dict()) == camp


def test_lease_lock_exclusive_and_stale_takeover(tmp_path):
    a = LeaseLock(tmp_path / "x.lock", timeout=60.0)
    b = LeaseLock(tmp_path / "x.lock", timeout=60.0)
    assert a.try_acquire()
    assert not b.try_acquire()
    a.release()
    assert b.try_acquire()
    b.release()
    # stale takeover: fake an abandoned lock with an old mtime
    a = LeaseLock(tmp_path / "y.lock", timeout=0.5)
    assert a.try_acquire()
    a._beat.set()  # stop the heartbeat: simulates a crashed claimant
    old = time.time() - 10.0
    os.utime(tmp_path / "y.lock", (old, old))
    assert b.__class__(tmp_path / "y.lock", timeout=0.5).try_acquire()


# --------------------------------------------------------------------- #
# (a)-(b): resume, changed points and retry are content-hash dedup
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_runs_and_rerun_skips_completed(tmp_path, workers):
    camp = _campaign(workers=workers)
    first = run_campaign(camp, tmp_path)
    assert first["summary"] == {"total": 4, "ran": 4, "skipped": 0, "failed": 0}
    assert first == load_manifest(tmp_path)
    for entry in first["points"].values():
        assert entry["status"] == "done" and entry["compute"] == "scheduled"
        assert entry["result"]["steps"] == 1
        assert entry["outdir"] == f"jobs/{entry['job']}/out"
        assert (tmp_path / entry["outdir"] / "result.json").exists()
        assert (tmp_path / entry["outdir"] / "checkpoint.npz").exists()

    second = run_campaign(camp, tmp_path)
    assert second["summary"] == {"total": 4, "ran": 0, "skipped": 4, "failed": 0}
    assert {e["compute"] for e in second["points"].values()} == {"cached"}
    assert set(_claims(tmp_path).values()) == {1} and len(_claims(tmp_path)) == 4


def test_changed_points_run_only_new_digests_and_failed_jobs_retry(tmp_path):
    first = run_campaign(_campaign(), tmp_path)
    changed = run_campaign(_campaign(scan={"drift": [1.5, 2.5], "vt": [0.4, 0.5]}), tmp_path)
    # the two drift=1.5 points are unchanged, the drift=2.5 pair is new work
    assert changed["summary"] == {"total": 4, "ran": 2, "skipped": 2, "failed": 0}
    new = {e["job"] for e in changed["points"].values() if e["compute"] == "scheduled"}
    assert len(new) == 2 and not new & {e["job"] for e in first["points"].values()}
    assert set(_claims(tmp_path).values()) == {1} and len(_claims(tmp_path)) == 6
    # a job that failed under a worker is re-queued by the next submit
    victim = first["points"]["p0000"]["job"]
    FileJobStore(tmp_path).finish(victim, None, "RuntimeError: boom")
    retried = run_campaign(_campaign(), tmp_path)
    assert retried["points"]["p0000"]["compute"] == "requeued"
    assert retried["summary"] == {"total": 4, "ran": 1, "skipped": 3, "failed": 0}
    assert _claims(tmp_path)[victim] == 2


def test_point_that_does_not_build_is_recorded_not_fatal(tmp_path, capsys):
    points = [{}, {"poly_order": 0}, {"nx": "four"}]
    data = {**_campaign().to_dict(), "scan": {}, "points": points}
    manifest = run_campaign(CampaignSpec.from_dict(data), tmp_path / "lib")
    assert _statuses(manifest) == ["done", "failed", "failed"]
    bad = manifest["points"]["p0001"]
    assert bad["job"] is None and bad["outdir"] is None
    assert bad["error"].startswith("SpecError:") and "poly_order" in bad["error"]
    # a scenario factory tripping over a mistyped parameter is a point error too
    assert manifest["points"]["p0002"]["error"].startswith("TypeError:")
    assert manifest["summary"] == {"total": 3, "ran": 3, "skipped": 0, "failed": 2}
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(data))
    assert main(["campaign", str(path), "--outdir", str(tmp_path / "cli")]) == 1
    assert "2 failed" in capsys.readouterr().out


def test_points_with_one_content_hash_share_one_job(tmp_path):
    camp = _campaign(scan={}, points=[{}, {"plan_cache": "off"}, {}])
    manifest = run_campaign(camp, tmp_path)
    assert len({e["job"] for e in manifest["points"].values()}) == 1
    assert [e["compute"] for e in manifest["points"].values()] == [
        "scheduled", "attached", "attached",
    ]
    assert _statuses(manifest) == ["done"] * 3
    assert sum(_claims(tmp_path).values()) == 1


# --------------------------------------------------------------------- #
# (c)-(e): exactly once, nothing lost
# --------------------------------------------------------------------- #
def test_interrupted_campaign_resumes_where_it_stopped(tmp_path):
    camp = _campaign()
    prepared = run_campaign(camp, tmp_path, drain=False)
    assert _statuses(prepared) == ["queued"] * 4 and "summary" not in prepared
    # a drain that dies after two jobs
    assert len(worker_loop(tmp_path, exit_when_idle=True, max_jobs=2)["ran"]) == 2
    resumed = run_campaign(camp, tmp_path)
    assert resumed["summary"] == {"total": 4, "ran": 2, "skipped": 2, "failed": 0}
    assert _statuses(resumed) == ["done"] * 4
    assert set(_claims(tmp_path).values()) == {1} and len(_claims(tmp_path)) == 4


def test_concurrent_workers_run_each_job_exactly_once(tmp_path):
    camp = _campaign()
    run_campaign(camp, tmp_path, drain=False)
    ctx = mp.get_context("fork")
    procs = [
        ctx.Process(
            target=worker_loop, args=(str(tmp_path),), kwargs={"exit_when_idle": True}
        )
        for _ in range(3)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=600)
    assert all(p.exitcode == 0 for p in procs)
    assert _statuses(run_campaign(camp, tmp_path)) == ["done"] * 4  # none lost
    assert set(_claims(tmp_path).values()) == {1}  # none run twice
    assert len(_claims(tmp_path)) == 4


def test_crashed_claimant_job_is_recovered(tmp_path):
    camp = _campaign(scan={"drift": [1.5, 2.0]})
    prepared = run_campaign(camp, tmp_path, drain=False)
    # a worker that died mid-run: status "running" under an hour-old lease
    ghost = prepared["points"]["p0000"]["job"]
    FileJobStore(tmp_path).update(
        ghost, lambda r: r.update(status="running", worker="ghost:1")
    )
    lock = tmp_path / LOCK_DIR / f"{ghost}.lock"
    lock.write_text(json.dumps({"host": "ghost", "pid": 1, "time": 0}))
    old = time.time() - 3600.0
    os.utime(lock, (old, old))

    out = worker_loop(tmp_path, lease_timeout=1.0, exit_when_idle=True)
    assert sorted(out["ran"]) == sorted(e["job"] for e in prepared["points"].values())
    assert _statuses(run_campaign(camp, tmp_path)) == ["done"] * 2


# --------------------------------------------------------------------- #
# (f): a campaign directory is a serve directory
# --------------------------------------------------------------------- #
def test_daemon_on_a_finished_campaign_dir_serves_its_points_cached(tmp_path):
    camp = _campaign(scan={"drift": [1.5, 2.0]})
    manifest = run_campaign(camp, tmp_path)
    daemon = ServeDaemon(tmp_path, workers=1, poll=0.05).start()
    try:
        client = ServeClient.from_dir(tmp_path)
        resp = client.submit(
            scenario=camp.scenario, overrides=manifest["points"]["p0001"]["overrides"]
        )
        assert resp["compute"] == "cached"
        assert resp["job"] == manifest["points"]["p0001"]["job"]
        assert client.result(resp["job"]) == manifest["points"]["p0001"]["result"]
    finally:
        daemon.drain(timeout=60.0)
    assert sum(_claims(tmp_path).values()) == 2


def test_worker_cli_drains_a_live_daemons_store(tmp_path, capsys):
    daemon = ServeDaemon(tmp_path, workers=1, poll=0.05).start()
    try:
        client = ServeClient.from_dir(tmp_path)
        # keep the daemon's only worker busy, then queue a second job
        slow = client.submit(
            spec=build("free_streaming", steps=2000, t_end=1e3, nx=16, nv=16, poly_order=1)
        )
        store = daemon.store
        deadline = time.monotonic() + 30.0
        while store.get(slow["job"])["status"] != "running":
            assert time.monotonic() < deadline, "daemon worker never claimed the slow job"
            time.sleep(0.02)
        fast = client.submit(scenario="two_stream", overrides=TINY)
        assert main(["worker", str(tmp_path)]) == 0
        assert "1 points ran, 0 failed" in capsys.readouterr().out
        record = store.get(fast["job"])
        assert record["status"] == "done" and record["attempts"] == 1
        assert record["worker"] == f"{socket.gethostname()}:{os.getpid()}"
        assert client.submit(scenario="two_stream", overrides=TINY)["compute"] == "cached"
    finally:
        daemon.drain(timeout=120.0)
    assert _claims(tmp_path) == {slow["job"]: 1, fast["job"]: 1}


# --------------------------------------------------------------------- #
# (g) + CLI
# --------------------------------------------------------------------- #
def test_campaign_point_output_is_byte_equal_to_a_plain_driver_run(tmp_path):
    manifest = run_campaign(_campaign(scan={"drift": [2.0]}), tmp_path / "camp")
    entry = manifest["points"]["p0000"]
    driver = Driver(build("two_stream", **entry["overrides"]), outdir=tmp_path / "ref")
    try:
        driver.run()
    finally:
        driver.close()
    assert (
        (tmp_path / "camp" / entry["outdir"] / "diagnostics.jsonl").read_bytes()
        == (tmp_path / "ref" / "diagnostics.jsonl").read_bytes()
    )


def test_cli_prepare_worker_campaign_roundtrip(tmp_path, capsys):
    path = tmp_path / "camp.json"
    path.write_text(json.dumps(_campaign(scan={"drift": [1.5, 2.0]}).to_dict()))
    out = str(tmp_path / "q")
    assert main(["campaign", str(path), "--prepare-only", "--outdir", out]) == 0
    assert "2 points (2 claimable)" in capsys.readouterr().out
    assert main(["worker", out, "--max-points", "1"]) == 0
    assert "1 points ran, 0 failed" in capsys.readouterr().out
    assert main(["worker", out]) == 0
    assert "1 points ran, 0 failed" in capsys.readouterr().out
    assert main(["campaign", str(path), "--outdir", out]) == 0
    assert "2 points — 0 ran, 2 skipped, 0 failed" in capsys.readouterr().out
    # the selector between runners is gone, not renamed
    with pytest.raises(SystemExit) as usage:
        main(["campaign", str(path), "--dispatch", "shard", "--outdir", out])
    assert usage.value.code == 2


def test_worker_cli_on_a_mistyped_dir_is_an_error_and_creates_nothing(tmp_path, capsys):
    assert main(["worker", str(tmp_path / "typo")]) == 2
    assert "not a job store" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()
    (tmp_path / "empty").mkdir()
    assert main(["worker", str(tmp_path / "empty")]) == 2
    assert list((tmp_path / "empty").iterdir()) == []
