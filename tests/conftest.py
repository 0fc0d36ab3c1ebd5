"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import os
import shutil

import numpy as np
import pytest

from repro.queueing import HeterogeneousNetwork
from repro.sim import ckernel


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_network(speeds, utilization=0.7, mu=1.0):
    """Shorthand used across allocation/queueing tests."""
    return HeterogeneousNetwork(np.asarray(speeds, dtype=float), mu=mu,
                                utilization=utilization)


@pytest.fixture
def paper_network():
    """Table 1's system at the paper's 70% utilization."""
    return make_network([1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 10.0], 0.7)


@pytest.fixture
def base_network():
    """Table 3's base configuration at 70% utilization."""
    speeds = [1.0] * 5 + [1.5] * 4 + [2.0] * 3 + [5.0, 10.0, 12.0]
    return make_network(speeds, 0.7)


@contextlib.contextmanager
def kernel_path(path: str):
    """Re-probe the compiled core as the kernel path (``"c"``) or under
    ``REPRO_DISABLE_CKERNEL=1`` (``"python"``); restore the probe after.
    Yields the P² entry point (None on the Python path)."""
    saved_fns = ckernel._fns
    saved_env = os.environ.get("REPRO_DISABLE_CKERNEL")
    if path == "python":
        os.environ["REPRO_DISABLE_CKERNEL"] = "1"
    else:
        os.environ.pop("REPRO_DISABLE_CKERNEL", None)
    ckernel._fns = None
    try:
        fn = ckernel.entry("completions")
        assert (fn is None) == (path == "python")
        yield fn
    finally:
        ckernel._fns = saved_fns
        if saved_env is None:
            os.environ.pop("REPRO_DISABLE_CKERNEL", None)
        else:
            os.environ["REPRO_DISABLE_CKERNEL"] = saved_env


needs_compiler = pytest.mark.skipif(
    not (shutil.which("gcc") or shutil.which("cc")), reason="no C compiler"
)
#: Parametrize a test over both kernel paths (run it under kernel_path).
KERNEL_PATHS = ["python", pytest.param("c", marks=needs_compiler)]
