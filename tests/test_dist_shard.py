"""Process-sharded execution: bitwise serial equality, halos, checkpoints.

Every test here runs real forked worker processes (the ``process:N``
backend), so the module is marked ``shard`` — CI runs it both inside the
full suite and as a dedicated matrix leg.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import BlockGrid, ShardedApp, ShardPlan, fill_padded
from repro.dist.plan import HaloStats
from repro.grid import Grid
from repro.io.checkpoint import load_checkpoint
from repro.runtime import Driver, SpecError, build
from repro.runtime.driver import build_app

pytestmark = pytest.mark.shard


def run_serial(spec):
    """Adaptive-dt steps (``step()`` picks the CFL dt): app, state, dts."""
    app = build_app(spec)
    dts = [app.step() for _ in range(spec.steps)]
    return app, {k: np.array(v) for k, v in app.state().items()}, dts


def run_sharded(spec, shards):
    app = build_app(spec.with_overrides({"backend": f"process:{shards}"}))
    assert isinstance(app, ShardedApp)
    try:
        dts = [app.step() for _ in range(spec.steps)]
        state = {k: np.array(v) for k, v in app.state().items()}
        return state, app.halo_stats, dts
    finally:
        app.close()


_WEIBEL = {"nx": 4, "nv": 6, "poly_order": 1, "steps": 3}
SCENARIOS = [
    # (name, overrides, shard counts[, id suffix]) — grids small enough for
    # CI, spanning 1X/2X conf spaces, Maxwell/Poisson, multi-species,
    # collisions, drive, every stepper and both Maxwell fluxes
    ("landau_damping", {"nx": 8, "nv": 8, "poly_order": 1, "steps": 3}, (2, 4)),
    ("weibel_2x2v", _WEIBEL, (2, 4)),
    ("weibel_2x2v", {**_WEIBEL, "stepper": "ssp-rk2"}, (2,), "ssp-rk2"),
    ("weibel_2x2v", {**_WEIBEL, "stepper": "forward-euler"}, (2,), "forward-euler"),
    # process:4 decomposes both axes, process:2 one: the jump terms cross a
    # ghosted and a wrapped Maxwell axis
    ("weibel_2x2v", {**_WEIBEL, "field.flux": "upwind"}, (2, 4), "upwind"),
    ("two_stream", {"nx": 9, "nv": 8, "poly_order": 1, "steps": 3}, (3,)),
    ("ion_acoustic", {"nx": 8, "nv": 10, "poly_order": 1, "steps": 2}, (2,)),
    ("driven_landau", {"nx": 8, "nv": 10, "poly_order": 1, "steps": 2}, (2, 4)),
    ("collisional_relaxation", {"nx": 6, "nv": 10, "poly_order": 1, "steps": 2}, (2,)),
    # the collision frequency sets dt here, and it moves with the state
    # (0.0025 -> 0.0017 after one step): the parent of a sharded run must
    # pick the dt the serial run picks, from the state alone
    ("collisional_relaxation", {"conf_grid.cells": [4], "steps": 10}, (2,), "adaptive-dt"),
    ("free_streaming", {"nx": 8, "nv": 6, "poly_order": 1, "steps": 3}, (2,)),
]


@pytest.mark.parametrize(
    "name,overrides,shard_counts",
    [s[:3] for s in SCENARIOS],
    ids=["-".join(s[:1] + s[3:]) for s in SCENARIOS],
)
def test_sharded_bitwise_equals_serial(name, overrides, shard_counts):
    spec = build(name, **overrides)
    _, serial_state, serial_dts = run_serial(spec)
    for shards in shard_counts:
        sharded_state, halo, dts = run_sharded(spec, shards)
        assert dts == serial_dts, f"{name} process:{shards} took other steps"
        assert set(sharded_state) == set(serial_state)
        for key in serial_state:
            assert np.array_equal(serial_state[key], sharded_state[key]), (
                f"{name} process:{shards} diverged in {key}"
            )
        assert halo["messages"] > 0  # real exchanges happened


def test_measured_halo_matches_fig3_model():
    spec = build("weibel_2x2v", nx=6, nv=8, poly_order=1, steps=2)
    run_serial(spec)
    state, halo, _ = run_sharded(spec, 4)
    plan = ShardPlan.create(spec.conf_grid.cells, 4)
    from repro.basis.multiindex import num_basis

    npb = num_basis(4, 1, "serendipity")
    model_per_exchange = plan.model_halo_doubles(npb, (8, 8))
    stages = 3  # ssp-rk3
    assert halo["f"]["doubles"] == model_per_exchange * stages * spec.steps
    # per-shard stats sum to the total
    assert sum(e["f"]["doubles"] for e in halo["per_shard"]) == halo["f"]["doubles"]


@pytest.mark.parametrize(
    "scenario,overrides",
    [
        ("weibel_2x2v", {"nx": 4, "nv": 6, "poly_order": 1, "steps": 2}),
        # static (evolve=False) field: exercises the set_state -> worker
        # re-read path for the never-stepped EM state
        ("free_streaming", {"nx": 8, "nv": 6, "poly_order": 1, "steps": 2}),
        # a Poisson field and an LBO operator, both shared between the
        # energy record, suggested_dt and RK stage 1 of one state: a resume
        # must not reuse the values of the state it replaces
        ("two_stream", {"nx": 8, "nv": 8, "poly_order": 1, "steps": 2}),
        ("collisional_relaxation", {"nx": 4, "steps": 2}),
    ],
)
def test_checkpoint_cross_resume_bitwise(tmp_path, scenario, overrides):
    """process:N -> serial resume and serial -> process:N resume both land
    bit-identically on the all-serial reference."""
    short = build(scenario, **overrides)
    full = short.with_overrides({"steps": 4})

    ref_drv = Driver(full, outdir=tmp_path / "ref")
    ref_drv.run()
    ref, _ = load_checkpoint(tmp_path / "ref" / "checkpoint.npz")

    # sharded first half, serial second half
    d1 = Driver(short.with_overrides({"backend": "process:2"}), outdir=tmp_path / "a")
    d1.run()
    d1.close()
    d2 = Driver.from_checkpoint(
        tmp_path / "a" / "checkpoint.npz",
        outdir=tmp_path / "a2",
        overrides={"steps": 4, "backend": "numpy"},
    )
    d2.run()
    got, _ = load_checkpoint(tmp_path / "a2" / "checkpoint.npz")
    for key in ref:
        assert np.array_equal(ref[key], got[key]), f"proc->serial diverged in {key}"

    # serial first half, sharded second half (backend travels in the spec)
    d3 = Driver(short, outdir=tmp_path / "b")
    d3.run()
    d4 = Driver.from_checkpoint(
        tmp_path / "b" / "checkpoint.npz",
        outdir=tmp_path / "b2",
        overrides={"steps": 4, "backend": "process:2"},
    )
    d4.run()
    d4.close()
    got, _ = load_checkpoint(tmp_path / "b2" / "checkpoint.npz")
    for key in ref:
        assert np.array_equal(ref[key], got[key]), f"serial->proc diverged in {key}"


def test_streamed_diagnostics_identical(tmp_path):
    specs = [
        build("two_stream", nx=8, nv=8, poly_order=1, steps=3),
        # every record's time is a sum of collision-limited adaptive dts
        build("collisional_relaxation", steps=10, **{"conf_grid.cells": [4]}),
    ]
    for spec in specs:
        out = tmp_path / spec.name
        ds = Driver(spec, outdir=out / "serial")
        rs = ds.run()
        dp = Driver(spec.with_overrides({"backend": "process:2"}), outdir=out / "proc")
        rp = dp.run()
        dp.close()
        assert (out / "serial" / "diagnostics.jsonl").read_text() == (
            out / "proc" / "diagnostics.jsonl"
        ).read_text()
        assert rs["field_energy"] == rp["field_energy"]
        assert rs["total_energy"] == rp["total_energy"]


def test_driver_usable_after_close(tmp_path):
    spec = build("free_streaming", nx=8, nv=6, poly_order=1, steps=2)
    drv = Driver(spec.with_overrides({"backend": "process:2"}), outdir=tmp_path)
    drv.run()
    drv.close()
    drv.close()  # idempotent
    assert drv.app.total_energy() > 0.0  # private state copies survive
    with pytest.raises(RuntimeError, match="closed"):
        drv.app.step()


def test_warm_cache_sharded_run_compiles_nothing(tmp_path):
    """Acceptance: a warm-cache process:2 run hydrates every plan from the
    shared disk cache (zero compiles in parent or any worker) while staying
    bit-identical to serial.  The cache is warmed by a cold sharded run —
    worker plans are keyed on the *shard* cell shapes, so a serial run
    cannot pre-warm them."""
    cache = tmp_path / "plans"
    spec = build(
        "weibel_2x2v", nx=4, nv=6, poly_order=1, steps=2,
        **{"plan_cache": str(cache)},
    )

    serial = Driver(spec)
    serial.run()

    cold = Driver(spec.with_overrides({"backend": "process:2"}))
    cold_result = cold.run()
    cold.close()
    assert cold_result["plans"]["cache_stores"] > 0  # populated the cache

    warm = Driver(spec.with_overrides({"backend": "process:2"}))
    warm_result = warm.run()
    warm.close()

    plans = warm_result["plans"]
    assert plans["compiled"] == 0, f"warm sharded run recompiled: {plans}"
    assert plans["hydrated"] > 0
    assert plans["cache_misses"] == 0

    for key, ref in serial.app.state().items():
        assert np.array_equal(ref, warm.app.state()[key]), key
        assert np.array_equal(ref, cold.app.state()[key]), key


# --------------------------------------------------------------------- #
# plan / block unit tests (no worker processes)
# --------------------------------------------------------------------- #
def test_shard_plan_partitions_cells():
    plan = ShardPlan.create((6, 6), 4)
    assert plan.decomp.dims == (2, 2)
    assert plan.pad == (1, 1)
    seen = np.zeros((6, 6), dtype=int)
    for shard in range(4):
        (xlo, xhi), (ylo, yhi) = plan.ranges(shard)
        seen[xlo:xhi, ylo:yhi] += 1
    assert np.all(seen == 1)
    assert plan.padded_cells(0) == (5, 5)


def test_shard_plan_rejects_single_cell_blocks():
    with pytest.raises(ValueError, match="fewer shards"):
        ShardPlan.create((2,), 2)
    # and too many shards for the grid at all
    with pytest.raises(ValueError):
        ShardPlan.create((4,), 8)


def test_shard_plan_model_matches_decomp_ghosts():
    plan = ShardPlan.create((8,), 2)
    # 1D, 2 blocks: each block receives 2 ghost cells per exchange
    assert plan.model_halo_doubles(num_basis=3, vel_cells=(4,)) == 2 * 2 * 4 * 3


def test_block_grid_geometry_is_bitwise_parent():
    parent = Grid([0.1, -0.3], [1.7, 2.9], [7, 5])
    block = BlockGrid(parent, [(2, 5), (1, 4)])
    assert block.cells == (3, 3)
    assert block.dx == parent.dx
    assert np.array_equal(block.centers(0), parent.centers(0)[2:5])
    assert np.array_equal(block.edges(1), parent.edges(1)[1:5])
    ext = block.extend(Grid([-1.0], [1.0], [4]))
    assert np.array_equal(ext.centers(2), Grid([-1.0], [1.0], [4]).centers(0))
    assert ext.dx[:2] == parent.dx


def test_fill_padded_periodic_ghosts():
    # cell-major layout: the configuration axis leads, trailing axes carry
    # the per-cell coefficient block — each ghost slab is contiguous
    stats = HaloStats()
    arr = np.arange(6 * 2, dtype=float).reshape(6, 2)
    pad = np.zeros((5, 2))
    fill_padded(arr, pad, ranges=[(0, 3)], pad=[1], conf_cells=(6,), stats=stats)
    assert np.array_equal(pad[1:4], arr[0:3])
    assert np.array_equal(pad[0], arr[5])   # periodic wrap low
    assert np.array_equal(pad[4], arr[3])   # high neighbour
    assert stats.messages == 2
    assert stats.doubles == 4
    assert stats.bytes == 32


def test_process_backend_rejects_quadrature_scheme():
    spec = build(
        "landau_damping", nx=8, nv=8, poly_order=1, steps=1,
        **{"scheme": "quadrature", "backend": "process:2"},
    )
    with pytest.raises(SpecError, match="modal"):
        build_app(spec)
