"""Shared fixtures: small grids and cached kernel bundles.

Kernel generation is exact symbolic work and is memoized process-wide via
:mod:`repro.kernels.registry`; the fixtures below standardize the small
discretizations used across the suite so every test file hits the cache.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ExecutionPlan, compiler_config
from repro.engine.compile import compiled_kernel
from repro.engine.program import Sweep, bound_plans, run_passes
from repro.grid import Grid, PhaseGrid


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "shard: process-sharded execution tests (CI runs them as a "
        "separate matrix leg exercising --backend process:2)",
    )
    config.addinivalue_line(
        "markers",
        "layout: cell-major state-layout invariants (copy-free hot path, "
        "exactness against the mode-major reference, contiguous halo slabs)",
    )
    config.addinivalue_line(
        "markers",
        "systems: Model-protocol conformance over every registered system "
        "(state round-trip, rhs donation, checkpoint/resume, serial == "
        "process:2) plus the public-API snapshot",
    )
    config.addinivalue_line(
        "markers",
        "serve: repro.serve job-queue tests (content-hash dedup, lease "
        "crash recovery, campaigns as batch submits, HTTP streaming, "
        "SIGTERM drain); CI runs them as their own matrix leg",
    )


@pytest.fixture(scope="session", autouse=True)
def _isolated_plan_cache(tmp_path_factory):
    """Point the compiled-plan disk cache at a session tmp dir so the suite
    never reads from or writes to the user's ``~/.cache/repro``."""
    import os

    prev = os.environ.get("REPRO_CACHE_DIR")
    path = tmp_path_factory.mktemp("plan-cache")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    yield path
    if prev is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = prev


@pytest.fixture(scope="session")
def _session_kernel(_isolated_plan_cache):
    """The compiled C kernel's files (``ccsweep-*.so`` and its ``.c``),
    built once per session into the session's cache directory."""
    with compiler_config(tier="cc", cache=str(_isolated_plan_cache)):
        compiled_kernel()
    return sorted(_isolated_plan_cache.glob("ccsweep-*"))


@pytest.fixture
def fresh_cache(tmp_path, _session_kernel):
    """``fresh_cache() -> Path``: a new plan-cache directory under
    ``tmp_path`` holding no plan, only the session's built C kernel, so a
    run into it compiles every plan but does not build the kernel again (a
    test about the build itself points at an empty directory)."""

    def make():
        path = Path(tempfile.mkdtemp(prefix="plans-", dir=tmp_path))
        for file in _session_kernel:
            shutil.copy(file, path)
        return path

    return make


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20200919)


@pytest.fixture
def pg_1x1v():
    return PhaseGrid(Grid([0.0], [1.0], [4]), Grid([-2.0], [2.0], [4]))


@pytest.fixture
def pg_1x2v():
    return PhaseGrid(Grid([0.0], [1.0], [3]), Grid([-2.0, -2.0], [2.0, 2.0], [4, 4]))


@pytest.fixture
def pg_2x2v():
    return PhaseGrid(
        Grid([0.0, 0.0], [1.0, 1.0], [3, 3]), Grid([-2.0, -2.0], [2.0, 2.0], [4, 4])
    )


def random_em(rng, npc, conf_cells, amplitude=1.0):
    return amplitude * rng.standard_normal((8, npc) + tuple(conf_cells))


def random_f(rng, np_, cells, amplitude=1.0):
    return amplitude * rng.standard_normal((np_,) + tuple(cells))


@pytest.fixture(scope="session")
def run_op():
    """``run_op(op, src, aux, dst, accumulate=True, faces=None) -> dst``: run
    ``op`` the way the runtime does.

    ``op`` is a :class:`~repro.kernels.grouped.GroupedOperator`, looked up
    and bound by ``bound_plans``, or an ``ExecutionPlan``, bound as it is.
    Without ``faces``: ``dst (+)= op(src)`` on cell-major state, one
    ``Sweep`` through ``run_passes``; with a ``FaceMap``: the flux across
    its faces from the trace slots of ``src`` into those of ``dst``
    (``ExecutionPlan.run_faces``)."""

    def run(op, src, aux, dst, accumulate=True, faces=None):
        if isinstance(op, ExecutionPlan):
            op.bind(aux)
            plan = op
        else:
            cells = src.shape[: op.cdim] + src.shape[op.cdim + 1 :]
            (plan,) = bound_plans([(op, cells if faces is None else faces.cell_shape)], aux)
        if faces is not None:
            return plan.run_faces(aux, src, dst, faces)
        run_passes([Sweep(op, "src", "dst", accumulate)], [plan], {"src": src, "dst": dst}, aux)
        return dst

    return run
