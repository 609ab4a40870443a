"""Protocol-conformance suite: every registered system honors the Model API.

Run with ``pytest -m systems``.  Each registered system kind provides a
small ``example`` spec; the suite drives it exclusively through the
:class:`repro.systems.Model` protocol and checks the contracts every
runtime consumer relies on: state round-trip, ``rhs(out=)`` donation
safety, bit-exact checkpoint/resume, and serial == ``process:2`` where
sharding is supported.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro.runtime import Driver
from repro.systems import Model, System, build_system, get_system_kind, list_system_kinds

pytestmark = pytest.mark.systems

KIND_NAMES = [k.name for k in list_system_kinds()]


def _example_spec(name):
    kind = get_system_kind(name)
    assert kind.example is not None, (
        f"registered system {name!r} must provide a conformance example spec"
    )
    return kind.example()


@pytest.fixture(params=KIND_NAMES)
def kind_name(request):
    return request.param


# --------------------------------------------------------------------- #
def test_every_registered_system_is_a_model(kind_name):
    system = build_system(_example_spec(kind_name))
    assert isinstance(system, Model)
    assert isinstance(system, System)
    # the state dict must expose the very arrays the system steps
    state = system.state()
    assert state, "state() must not be empty"
    for key, arr in state.items():
        assert isinstance(arr, np.ndarray), key
    names = {sp.name for sp in system.species}
    assert {f"f/{n}" for n in names} <= set(state)


def test_state_roundtrip(kind_name):
    system = build_system(_example_spec(kind_name))
    before = {k: v.copy() for k, v in system.state().items()}
    system.step()
    after_step = {k: v.copy() for k, v in system.state().items()}
    assert any(
        not np.array_equal(before[k], after_step[k]) for k in before
    ), "stepping must change the state"
    # adopting the saved arrays restores the model exactly
    system.set_state({k: v.copy() for k, v in before.items()})
    system.time, system.step_count = 0.0, 0
    restored = system.state()
    assert set(restored) == set(before)
    for k in before:
        assert np.array_equal(restored[k], before[k]), k
    # and re-stepping from the restored state reproduces the first step
    dt = system.step()
    assert dt > 0
    for k in before:
        assert np.array_equal(system.state()[k], after_step[k]), k


def test_rhs_out_donation_safety(kind_name):
    system = build_system(_example_spec(kind_name))
    state = system.state()
    snapshot = {k: v.copy() for k, v in state.items()}
    fresh = system.rhs(state)
    assert set(fresh) == set(state)
    # rhs must not mutate its input state
    for k in state:
        assert np.array_equal(state[k], snapshot[k]), k
    # a donated buffer dict is filled in place with identical values
    out = {k: np.full_like(v, np.nan) for k, v in state.items()}
    ret = system.rhs(state, out=out)
    assert ret is out
    for k in state:
        assert ret[k] is out[k]
        assert np.array_equal(out[k], fresh[k]), k
    # donation is repeatable (no contamination from the previous fill)
    system.rhs(state, out=out)
    for k in state:
        assert np.array_equal(out[k], fresh[k]), k


def test_checkpoint_resume_bitexact(kind_name, tmp_path):
    spec = _example_spec(kind_name).with_overrides({"steps": 4})
    straight = Driver(spec, outdir=tmp_path / "straight")
    straight.run()

    half = Driver(
        spec.with_overrides({"steps": 2}), outdir=tmp_path / "half"
    )
    half.run()
    resumed = Driver.from_checkpoint(
        tmp_path / "half" / "checkpoint.npz",
        outdir=tmp_path / "resumed",
        overrides={"steps": 4},
    )
    resumed.run()

    a, b = straight.app.state(), resumed.app.state()
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k
    assert straight.app.time == resumed.app.time
    assert straight.history.times == resumed.history.times
    assert straight.history.field_energy == resumed.history.field_energy


def test_energies_and_observables_contract(kind_name):
    system = build_system(_example_spec(kind_name))
    energies = system.energies()
    assert {"field", "total"} <= set(energies)
    particle = {k: v for k, v in energies.items() if k.startswith("particle/")}
    assert set(particle) == {f"particle/{sp.name}" for sp in system.species}
    assert energies["total"] == pytest.approx(
        energies["field"] + sum(particle.values())
    )
    observables = system.observables()
    assert {f"particle_number/{sp.name}" for sp in system.species} <= set(
        observables
    )
    assert all(isinstance(v, float) for v in observables.values())


def test_non_shardable_system_rejected_by_process_backend():
    from repro.runtime import SpecError, build, build_app
    from repro.systems import NullFieldBlock, build_species_blocks, register_system
    from repro.systems.registry import _REGISTRY

    @register_system("_test_noshard", description="test-only", shardable=False)
    def _build(spec):
        grid = spec.conf_grid.build()
        return System(
            grid, build_species_blocks(spec, grid), field=NullFieldBlock(),
            poly_order=spec.poly_order, name="_test_noshard",
        )

    try:
        spec = build("advection_1d", nx=4, nv=8, poly_order=1).with_overrides(
            {"model": "_test_noshard", "backend": "process:2"}
        )
        with pytest.raises(SpecError, match="not shardable"):
            build_app(spec)
    finally:
        del _REGISTRY["_test_noshard"]


def test_record_jdote_gated_by_system_capability():
    from repro.runtime import SpecError, build

    with pytest.raises(SpecError, match="record_jdote"):
        build("two_stream", nx=4, nv=8).with_overrides(
            {"diagnostics.record_jdote": True}
        )
    spec = build("landau_damping", nx=4, nv=8).with_overrides(
        {"diagnostics.record_jdote": True}
    )
    assert spec.diagnostics.record_jdote


def test_field_block_cannot_be_rebound():
    from repro.grid import Grid
    from repro.systems import MaxwellBlock, FieldSpec, Species

    def f0(x, v):
        return np.exp(-(v**2) / 2)

    def species():
        return [Species("e", -1.0, 1.0, Grid([-4.0], [4.0], [6]), f0)]

    blk = MaxwellBlock(FieldSpec(evolve=True))
    System(Grid([0.0], [1.0], [4]), species(), field=blk, poly_order=1)
    with pytest.raises(ValueError, match="already bound"):
        System(Grid([0.0], [2.0], [8]), species(), field=blk, poly_order=1)


def test_register_system_requires_a_description():
    from repro.systems import register_system

    def nodoc_builder(spec):  # pragma: no cover - never built
        return None

    with pytest.raises(ValueError, match="description"):
        register_system("_test_nodesc")(nodoc_builder)
    from repro.systems.registry import _REGISTRY

    assert "_test_nodesc" not in _REGISTRY


def test_register_system_rejects_duplicate_names():
    from repro.systems import register_system

    def hijack(spec):  # pragma: no cover - never built
        return None

    with pytest.raises(ValueError, match="already registered"):
        register_system("maxwell", description="hijack")(hijack)
    from repro.systems import get_system_kind

    assert get_system_kind("maxwell").builder is not hijack


def test_advection_rejects_unused_spec_fields():
    from repro.runtime import SpecError, build

    with pytest.raises(SpecError, match="neutralize"):
        build("advection_1d", nx=4, nv=8).with_overrides({"neutralize": False})
    with pytest.raises(SpecError, match="epsilon0"):
        build("advection_1d", nx=4, nv=8).with_overrides({"epsilon0": 2.0})


class _SerialArraysHalo:
    """The halo collaborator of one block, served out of a serial system's
    arrays in this process: ghost layers are copied from the whole-grid
    state, and the gathered charge density is the serial system's own."""

    def __init__(self, serial, plan, shard, grid):
        self.serial, self.plan, self.shard, self.grid = serial, plan, shard, grid

    def exchange(self, state):
        from repro.dist import fill_padded

        plan, whole = self.plan, self.serial.state()
        out = {}
        for key in state:
            out[key] = np.zeros(
                plan.padded_cells(self.shard) + whole[key].shape[plan.cdim:]
            )
            fill_padded(
                whole[key], out[key], plan.ranges(self.shard), plan.pad,
                plan.conf_cells,
            )
        return out

    def allgather(self, arr):
        from repro.systems import ChargeCoupling

        serial = self.serial
        whole = ChargeCoupling(
            serial.conf_grid, serial.cfg_basis, neutralize=False
        ).charge_density(serial.blocks, serial.state())
        assert np.array_equal(arr, self.grid.restrict(whole))
        return whole


@pytest.mark.parametrize("nshards", [2, 4])
def test_block_system_rhs_is_the_serial_rhs_on_its_block(kind_name, nshards):
    """The seam ``process:N`` runs on, without processes: a System rebuilt
    on one block of the grid, given a halo, evaluates the serial RHS
    restricted to that block bit for bit — and is never asked to project an
    initial condition."""
    from repro.dist import BlockGrid, ShardPlan

    if not get_system_kind(kind_name).shardable:
        pytest.skip(f"system {kind_name!r} does not support process sharding")
    serial = build_system(_example_spec(kind_name))
    try:
        plan = ShardPlan.create(serial.conf_grid.cells, nshards)
    except ValueError:
        pytest.skip(f"{serial.conf_grid.cells} cells are too few for {nshards} blocks")
    serial.step()  # off the initial condition: every field component is live
    state = serial.state()
    reference = serial.rhs(state)
    for shard in range(nshards):
        grid = BlockGrid(serial.conf_grid, plan.ranges(shard), plan.pad)
        block = serial.on_block(grid, _SerialArraysHalo(serial, plan, shard, grid))
        block.time = serial.time
        got = block.rhs({k: grid.restrict(v) for k, v in state.items()})
        assert set(got) == set(reference)
        for key, ref in reference.items():
            assert np.array_equal(got[key], grid.restrict(ref)), (kind_name, shard, key)
        assert not block.f  # handed its state: nothing was projected


@pytest.mark.shard
def test_serial_matches_process2(kind_name):
    kind = get_system_kind(kind_name)
    if not kind.shardable:
        pytest.skip(f"system {kind_name!r} does not support process sharding")
    if "fork" not in mp.get_all_start_methods():
        pytest.skip("process sharding requires the fork start method")
    spec = _example_spec(kind_name).with_overrides({"steps": 3})
    serial = build_system(spec)
    dts = [serial.step() for _ in range(3)]

    from repro.runtime import build_app

    sharded = build_app(spec.with_overrides({"backend": "process:2"}))
    try:
        for dt in dts:
            sharded.step(dt)
        a, b = serial.state(), sharded.state()
        assert set(a) == set(b)
        for k in a:
            assert np.array_equal(a[k], b[k]), k
        assert serial.energies() == sharded.energies()
    finally:
        sharded.close()
