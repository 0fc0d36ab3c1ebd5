"""Micro-benchmarks of the hot kernels (throughput guards).

These keep the simulator honest against performance regressions: the
per-server PS replay and the per-job dispatch decisions dominate every
experiment's wall time (profiled per the HPC guide before optimizing).
"""

import numpy as np
import pytest

from repro.allocation import optimized_fractions
from repro.dispatch import RandomDispatcher, RoundRobinDispatcher
from repro.queueing import HeterogeneousNetwork
from repro.core.cache import ReplicationCache
from repro.core.executor import shutdown_shared_executor
from repro.experiments.base import SCALES
from repro.experiments.figure3 import run_figure3
from repro.sim import ckernel, fcfs_replay, ps_replay
from repro.sim.fastpath import _fcfs_replay_loop, _ps_replay_loop

from .conftest import run_once


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    n = 100_000
    times = np.cumsum(rng.exponential(1.0, n))
    sizes = rng.pareto(1.5, n) + 0.5
    return times, sizes


def test_ps_replay_throughput(benchmark, workload):
    times, sizes = workload
    completions = benchmark(ps_replay, times, sizes, 2.0)
    assert completions.shape == times.shape
    assert np.all(completions >= times)


def test_ps_replay_loop_baseline(benchmark, workload):
    """The pre-vectorization per-event loop, kept as the reference point
    the segmented kernel is compared against."""
    times, sizes = workload
    completions = benchmark(_ps_replay_loop, times[:20_000], sizes[:20_000], 2.0)
    assert completions.shape == (20_000,)


def test_fcfs_replay_throughput(benchmark, workload):
    times, sizes = workload
    completions = benchmark(fcfs_replay, times, sizes, 2.0)
    assert completions.shape == times.shape
    # FCFS departures never decrease.
    assert np.all(np.diff(completions) >= 0)


def test_fcfs_replay_loop_baseline(benchmark, workload):
    """Per-job Lindley loop: the baseline the prefix-max kernel beats."""
    times, sizes = workload
    completions = benchmark(_fcfs_replay_loop, times, sizes, 2.0)
    assert completions.shape == times.shape


def test_round_robin_dispatch_throughput(benchmark):
    alphas = np.array([0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04])
    sizes = np.ones(50_000)

    def run():
        d = RoundRobinDispatcher()
        d.reset(alphas)
        return d.select_batch(sizes)

    targets = benchmark(run)
    counts = np.bincount(targets, minlength=8)
    np.testing.assert_allclose(counts / sizes.size, alphas, atol=1e-3)


def test_random_dispatch_throughput(benchmark):
    alphas = np.array([0.35, 0.22, 0.15, 0.12, 0.04, 0.04, 0.04, 0.04])
    sizes = np.ones(50_000)

    def run():
        d = RandomDispatcher(np.random.default_rng(1))
        d.reset(alphas)
        return d.select_batch(sizes)

    targets = benchmark(run)
    assert targets.size == sizes.size


@pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable"
)
def test_fcfs_cell_kernel_throughput(benchmark, workload):
    """The fused C FCFS sweep: 8 plans over 100k shared-stream jobs in
    one call — the kernel-v4 hot loop of cell-batched replay."""
    times, sizes = workload
    speeds = np.array([1.0, 1.0, 2.0, 4.0, 10.0])
    rng = np.random.default_rng(3)
    plans = [rng.integers(0, speeds.size, times.size) for _ in range(8)]
    fn = ckernel.entry("cell")

    def run():
        return ckernel.replay_cell_c(fn, times, sizes, speeds, plans, False)

    comp, _, _, _, ok = benchmark(run)
    assert ok
    assert comp.shape == (8, times.size)


@pytest.mark.skipif(
    not ckernel.kernel_available(), reason="compiled kernel unavailable"
)
def test_arena_reuse_steady_state(workload):
    """Steady-state replay must not regrow arena buffers: after a warm
    call at the high-water size, repeat calls reuse the same memory."""
    times, sizes = workload
    speeds = np.array([1.0, 2.0, 4.0])
    rng = np.random.default_rng(4)
    plans = [rng.integers(0, speeds.size, times.size) for _ in range(4)]
    fn = ckernel.entry("cell")
    ckernel.replay_cell_c(fn, times, sizes, speeds, plans, False, warmup_cut=100)
    a = ckernel.arena()
    grows_before = a.grows
    for _ in range(5):
        *_, ok = ckernel.replay_cell_c(
            fn, times, sizes, speeds, plans, False, warmup_cut=100
        )
        assert ok
    assert a.grows == grows_before


def test_algorithm1_latency(benchmark):
    """Algorithm 1 on a 1000-computer network stays sub-millisecond —
    the 'low overhead' claim that motivates static scheduling."""
    rng = np.random.default_rng(2)
    net = HeterogeneousNetwork(rng.uniform(0.5, 20.0, 1000), utilization=0.7)
    alphas = benchmark(optimized_fractions, net)
    assert alphas.sum() == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# End-to-end sweep benches: the grid executor against the serial path.
# ---------------------------------------------------------------------------

_SWEEP_KWARGS = dict(fast_speeds=(1.0, 10.0), policies=("ORR", "WRR"))


def _smoke_sweep(n_jobs=None):
    return run_figure3(SCALES["smoke"], n_jobs=n_jobs, **_SWEEP_KWARGS)


def test_sweep_serial_smoke(benchmark):
    result = run_once(benchmark, _smoke_sweep)
    assert result.cells


def test_sweep_grid_parallel_smoke(benchmark):
    """Same sweep through the shared pool; series must match serial.

    On many-core machines this is the speedup path; on small ones it
    mainly guards that the pool round-trip stays cheap and exact.
    """
    serial = _smoke_sweep()
    result = run_once(benchmark, _smoke_sweep, n_jobs=2)
    shutdown_shared_executor()
    for policy in _SWEEP_KWARGS["policies"]:
        np.testing.assert_array_equal(
            serial.series(policy, "mean_response_ratio"),
            result.series(policy, "mean_response_ratio"),
        )


def test_sweep_warm_cache_smoke(benchmark, tmp_path):
    """A fully warmed cache pass: no simulation, just lookups."""
    cache = ReplicationCache(tmp_path)
    cold = run_figure3(SCALES["smoke"], cache=cache, **_SWEEP_KWARGS)
    assert cold.cache_misses > 0
    warm = run_once(
        benchmark, run_figure3, SCALES["smoke"], cache=cache, **_SWEEP_KWARGS
    )
    assert warm.cache_hits == cold.cache_misses
    assert warm.cache_misses == 0
