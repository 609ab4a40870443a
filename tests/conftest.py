"""Shared fixtures: small grids and cached kernel bundles.

Kernel generation is exact symbolic work and is memoized process-wide via
:mod:`repro.kernels.registry`; the fixtures below standardize the small
discretizations used across the suite so every test file hits the cache.
"""

from __future__ import annotations

import numpy as np
import pytest

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
