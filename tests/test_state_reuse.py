"""One Poisson solve and one LBO moment pass per between-steps state.

``suggested_dt``, the Driver's energy record and the first RK stage of
``System.step`` all read the self-consistent field (and an LBO species its
primitive moments) of the same state.  They are computed once per state,
keyed by ``(generation, step_count, time)``, where ``set_state`` and the
stepper's ``_rhs_into`` callback bump the generation.  These tests count the
solves and moment passes, and check that no sequence of public calls can
reuse a value of another state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.collisions.lbo import LBOCollisions
from repro.fields.poisson import Poisson1D
from repro.runtime import Driver, build
from repro.runtime.driver import build_app

SMALL_TWO_STREAM = {"nx": 8, "nv": 8, "poly_order": 1}


@pytest.fixture
def counts(monkeypatch):
    """Calls of ``Poisson1D.solve`` and ``LBOCollisions.primitive_moments``."""
    seen = {"solve": 0, "moments": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Poisson1D, "solve", counted("solve", Poisson1D.solve))
    monkeypatch.setattr(
        LBOCollisions, "primitive_moments",
        counted("moments", LBOCollisions.primitive_moments),
    )
    return seen


def _per_step(app, counts, steps=3):
    app.step(app.suggested_dt())  # plans bind outside the count
    counts.update(solve=0, moments=0)
    for _ in range(steps):
        app.step(app.suggested_dt())
    return counts["solve"] / steps, counts["moments"] / steps


def test_three_poisson_solves_per_step(counts):
    app = build_app(build("two_stream", **SMALL_TWO_STREAM))
    assert _per_step(app, counts) == (3, 0)


def test_three_solves_and_moment_passes_per_collisional_step(counts):
    app = build_app(build("collisional_relaxation", nx=4))
    assert _per_step(app, counts) == (3, 3)


def test_a_driver_step_solves_three_times(counts, tmp_path):
    steps = 5
    spec = build("two_stream", steps=steps, **SMALL_TWO_STREAM)
    spec = spec.with_overrides({"diagnostics.energy_interval": 1})
    drv = Driver(spec, outdir=tmp_path)
    counts.update(solve=0)
    summary = drv.run()
    assert summary["steps"] == steps
    # the first record's solve is the only one beyond three per step: every
    # later record, the next suggested_dt and RK stage 1 share one, and the
    # run-end summary shares the last record's
    assert counts["solve"] == 3 * steps + 1


def _stepped_state(spec, steps):
    app = build_app(spec)
    try:
        for _ in range(steps):
            app.step(app.suggested_dt())
        return {k: np.array(v) for k, v in app.state().items()}
    finally:
        getattr(app, "close", lambda: None)()


def _check_set_state_discards_the_shared_values(spec):
    """``suggested_dt`` and ``energies`` on one state, then ``set_state`` of
    another at the same step and time: every later answer and the step are
    a fresh system's on the other state."""
    other = _stepped_state(spec.with_overrides({"backend": "numpy"}), 2)
    fresh = build_app(spec.with_overrides({"backend": "numpy"}))
    fresh.set_state({k: v.copy() for k, v in other.items()})
    want_dt, want_energies = fresh.suggested_dt(), fresh.energies()
    fresh.step(want_dt)

    app = build_app(spec)
    try:
        app.energies()
        dt = app.suggested_dt()
        app.set_state({k: v.copy() for k, v in other.items()})
        assert app.energies() == want_energies
        assert app.suggested_dt() == want_dt != dt
        app.step(want_dt)
        for key, arr in fresh.state().items():
            assert arr.tobytes() == app.state()[key].tobytes(), key
    finally:
        getattr(app, "close", lambda: None)()


@pytest.mark.parametrize(
    "name,overrides",
    [("two_stream", SMALL_TWO_STREAM), ("collisional_relaxation", {"nx": 4})],
)
def test_set_state_discards_the_shared_values(name, overrides):
    _check_set_state_discards_the_shared_values(build(name, **overrides))


@pytest.mark.shard
@pytest.mark.parametrize(
    "name,overrides",
    [("two_stream", SMALL_TWO_STREAM), ("collisional_relaxation", {"nx": 4})],
)
def test_set_state_discards_the_shared_values_sharded(name, overrides):
    spec = build(name, **overrides).with_overrides({"backend": "process:2"})
    _check_set_state_discards_the_shared_values(spec)


def test_calls_without_the_token_leave_nothing_for_the_step():
    """``suggested_dt``, then the public calls on another state — the
    field, the collision operator's reference form — then ``step``: the
    step reads the values of its own state."""
    spec = build("collisional_relaxation", nx=4)
    app, ref = build_app(spec), build_app(spec)
    other = {k: 1.5 * v for k, v in app.state().items()}
    dt = app.suggested_dt()
    for blk in app.blocks:
        blk.collisions.rhs(other[f"f/{blk.name}"], blk.moments)
    app.field.em_for_species(app, other)
    app.step(dt)
    ref.step(dt)
    for key, arr in ref.state().items():
        assert arr.tobytes() == app.state()[key].tobytes(), key


def _composed_rhs_into(app):
    """The RHS from the public calls, as the ledger's traced pass builds it."""

    def rhs_into(state, out):
        em = app.field.em_for_species(app, state)
        for blk in app.blocks:
            f, df = state[f"f/{blk.name}"], out[f"f/{blk.name}"]
            blk.solver.rhs(f, em, out=df)
            if blk.collisions is not None:
                blk.collisions.rhs(f, blk.moments, out=df, accumulate=True)
        app.field.accumulate_rhs(app, state, out)

    return rhs_into


@pytest.mark.parametrize("recipe", ["rhs_into", "composed"])
@pytest.mark.parametrize(
    "name,overrides",
    [("two_stream", SMALL_TWO_STREAM), ("collisional_relaxation", {"nx": 4})],
)
def test_stepping_the_arrays_outside_step_leaves_nothing_stale(name, overrides, recipe):
    """``stepper.step_inplace`` on the system's own arrays — with its
    ``_rhs_into`` or with the composed RHS — leaving the clock where it was:
    ``energies``, ``suggested_dt`` and the next step are a fresh system's on
    the stepped state."""
    spec = build(name, **overrides)
    app = build_app(spec)
    dt = app.suggested_dt()
    app.energies()
    rhs_into = app._rhs_into if recipe == "rhs_into" else _composed_rhs_into(app)
    app.stepper.step_inplace(app.state(), rhs_into, dt)
    fresh = build_app(spec)
    fresh.set_state({k: v.copy() for k, v in app.state().items()})
    assert app.energies() == fresh.energies()
    assert app.suggested_dt() == fresh.suggested_dt()
    app.step(dt)
    fresh.step(dt)
    for key, arr in fresh.state().items():
        assert arr.tobytes() == app.state()[key].tobytes(), key


@pytest.mark.parametrize(
    "name,overrides",
    [("two_stream", SMALL_TWO_STREAM), ("collisional_relaxation", {"nx": 4})],
)
def test_the_ledger_composed_step_equals_system_step(name, overrides):
    """The ledger's traced pass: a step composed from the public calls —
    ``field.em_for_species``, ``solver.rhs``, ``collisions.rhs`` — through
    ``stepper.step_inplace``, interleaved on one system with ``System.step``
    after ``suggested_dt``, ends in the bits of a system that only steps."""
    spec = build(name, **overrides)
    app, ref = build_app(spec), build_app(spec)
    rhs_into = _composed_rhs_into(app)

    def composed_step(dt):
        app.stepper.step_inplace(app.state(), rhs_into, dt)
        app.time += dt
        app.step_count += 1

    # the ledger's check: composed from a state, then System.step from it
    dt = app.suggested_dt()
    start = {k: v.copy() for k, v in app.state().items()}
    clock = (app.time, app.step_count)
    composed_step(dt)
    composed = {k: v.copy() for k, v in app.state().items()}
    app.set_state(start)
    app.time, app.step_count = clock
    app.step(dt)
    for key, arr in app.state().items():
        assert arr.tobytes() == composed[key].tobytes(), key
    ref.step(ref.suggested_dt())
    # the ledger's timing loop: the two interleaved
    for _ in range(2):
        composed_step(app.suggested_dt())
        app.step(app.suggested_dt())
        for _ in range(2):
            ref.step(ref.suggested_dt())
    assert (app.time, app.step_count) == (ref.time, ref.step_count)
    for key, arr in ref.state().items():
        assert arr.tobytes() == app.state()[key].tobytes(), key
