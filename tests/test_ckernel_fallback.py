"""Graceful ckernel degradation: no compiler means fallback, not failure.

The contract (see ``ckernel._ensure_fns``): every unavailability mode —
no gcc/cc on PATH, a failed compile, a bad shared object, or an explicit
``REPRO_DISABLE_CKERNEL`` — leaves the bit-identical Python loop in
place and records *why* as a telemetry counter.  Nothing in the stack
may raise because a host happens to be stripped down.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.core import get_policy
from repro.core.evaluate import run_policy_once
from repro.obs import counters
from repro.obs.digest import results_digest
from repro.sim import SimulationConfig, ckernel


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A world with no gcc/cc, an empty kernel cache, and a fresh probe."""
    monkeypatch.setenv("PATH", "")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
    monkeypatch.setattr(ckernel, "_fns", None)  # force a re-probe
    yield


CONFIG = SimulationConfig(
    speeds=(1.0, 2.0, 5.0), utilization=0.7,
    duration=3000.0, warmup=750.0, discipline="ps",
)


class TestNoCompilerFallback:
    def test_degrades_with_counter_not_exception(self, no_compiler):
        with counters.scoped() as delta:
            assert ckernel.kernel_available() is False  # no raise
        assert delta.get(
            counters.key("ckernel.unavailable", reason="no-compiler")
        ) == 1
        assert ckernel.entry("cell") is None

    def test_probe_failure_is_cached_and_counted_once(self, no_compiler):
        ckernel.kernel_available()
        with counters.scoped() as delta:
            ckernel.kernel_available()  # second probe hits the cached False
        assert not delta

    def test_simulation_still_runs_on_python_loop(self, no_compiler):
        result = run_policy_once(CONFIG, get_policy("ORR"), seed=9)
        assert result.metrics.mean_response_time > 0

    def test_python_fallback_is_bit_identical(self, monkeypatch, tmp_path):
        reference = run_policy_once(CONFIG, get_policy("ORR"), seed=9)
        monkeypatch.setenv("PATH", "")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(ckernel, "_fns", None)
        fallback = run_policy_once(CONFIG, get_policy("ORR"), seed=9)
        assert results_digest(fallback) == results_digest(reference)


class TestExplicitDisable:
    def test_disable_env_records_dedicated_counter(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_CKERNEL", "1")
        monkeypatch.setattr(ckernel, "_fns", None)
        with counters.scoped() as delta:
            assert ckernel.kernel_available() is False
        assert delta.get("ckernel.disabled") == 1


@pytest.mark.skipif(
    shutil.which("gcc") is None and shutil.which("cc") is None,
    reason="needs a compiler to stage the cached shared object",
)
class TestCachedLibrarySurvivesCompilerLoss:
    def test_existing_so_loads_without_a_compiler(self, monkeypatch):
        # Ensure the .so exists (compiles on demand with the real PATH) …
        monkeypatch.delenv("REPRO_DISABLE_CKERNEL", raising=False)
        monkeypatch.setattr(ckernel, "_fns", None)
        assert ckernel.kernel_available() is True
        assert ckernel.compiled_library_path().exists()
        # … then drop the compiler: the cached library must still load.
        monkeypatch.setenv("PATH", "")
        monkeypatch.setattr(ckernel, "_fns", None)
        with counters.scoped() as delta:
            assert ckernel.kernel_available() is True
        assert not any(k.startswith("ckernel.") for k in delta)


def test_fallback_replay_matches_reference_loop():
    """The degraded path is the reference loop — same bits by definition."""
    from repro.sim.fastpath import _ps_replay_loop, ps_replay

    rng = np.random.default_rng(4)
    times = np.cumsum(rng.exponential(1.0, 2000))
    work = rng.lognormal(0.0, 1.0, 2000)
    fast = ps_replay(times, work, 3.0)
    ref = _ps_replay_loop(times, work, 3.0)
    assert np.array_equal(np.sort(fast), np.sort(ref))
