"""Benchmark harness configuration.

Each ``bench_*.py`` file regenerates one table or figure of the paper
(see the table in benchmarks/README.md).  Benchmarks print the paper's
quantity next to the measured one; pytest-benchmark records the timings.
Run with:  pytest benchmarks/ --benchmark-only
"""

import numpy as np
import pytest


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(8675309)


def pytest_configure(config):
    config.addinivalue_line("markers", "paper: maps to a paper table/figure")
