"""The compiled Algorithm 1 re-solve against its numpy body, bit for bit.

``optimized_fractions`` and ``survivor_fractions`` run one scalar
compiled call when the kernel is loaded and their numpy bodies
otherwise; the two must return the same bytes.  That includes numpy's
summation order: a plain loop below eight elements and the unrolled
pairwise branch above, which only pools of nine or more servers reach —
so the pools here run from one to twenty servers, with random up-masks,
loads down to the cancellation fallback (ρ → 0), at the controller's
``rho_cap``, and homogeneous pools at the ``CUTOFF_RTOL`` boundary.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.allocation.optimized import CUTOFF_RTOL, optimized_fractions
from repro.faults.aware import survivor_fractions
from repro.queueing.network import HeterogeneousNetwork
from repro.sim import ckernel

pytestmark = pytest.mark.skipif(
    ckernel.entry("alloc") is None, reason="compiled re-solve unavailable"
)

RHO_CAP = 0.98


def _numpy(fn, *args):
    """*fn* with the kernel switched off: its numpy body."""
    saved = ckernel._fns
    ckernel._fns = False
    try:
        return fn(*args)
    finally:
        ckernel._fns = saved


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


loads = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([1e-300, 1e-18, 1e-15, 1e-12, RHO_CAP, 0.9999999999999999,
                     1.0, 0.0, -0.5, float("nan")]),
)


@given(
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rho=loads,
    homogeneous=st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_survivor_fractions_match_numpy(n, seed, rho, homogeneous):
    rng = np.random.default_rng(seed)
    speeds = (np.full(n, rng.choice([0.1, 1.0, 3.0])) if homogeneous
              else rng.lognormal(0.0, 1.5, n))
    up = rng.random(n) < 0.75
    got = survivor_fractions(speeds, up, rho)
    assert _same(got, _numpy(survivor_fractions, speeds, up, rho))


@given(
    n=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rho=st.floats(min_value=1e-300, max_value=0.999, exclude_min=False),
    mu=st.sampled_from([1.0, 0.3, 7.0]),
)
@settings(max_examples=300, deadline=None)
def test_optimized_fractions_match_numpy(n, seed, rho, mu):
    speeds = np.random.default_rng(seed).lognormal(0.0, 1.0, n)
    network = HeterogeneousNetwork(speeds, mu=mu, utilization=rho)
    assert _same(optimized_fractions(network),
                 _numpy(optimized_fractions, network))


@pytest.mark.parametrize("n", range(1, 21))
@pytest.mark.parametrize("speed", [0.1, 1.0, 2.7])
def test_homogeneous_pools_at_the_cutoff_tolerance(n, speed):
    """Light loads whose drop predicate is pure rounding noise: every
    machine must stay in, on both paths, with the same bits."""
    speeds = np.full(n, speed)
    for rho in (1e-16, 1e-13, CUTOFF_RTOL, 1e-11, 1e-9):
        network = HeterogeneousNetwork(speeds, utilization=rho)
        got = optimized_fractions(network)
        assert _same(got, _numpy(optimized_fractions, network))
        assert np.all(got > 0.0)


def test_cancellation_fallback_is_reached_and_matches():
    # At ρ far below the rounding noise the closed form cancels to zero
    # everywhere; both paths then split the active set by capacity.
    for speeds, want in (([1.0, 1.0, 1.0], [1 / 3] * 3), ([1.0, 4.0], [0.0, 1.0])):
        got = survivor_fractions(np.array(speeds), np.ones(len(speeds), bool), 1e-300)
        assert _same(got, _numpy(survivor_fractions, np.array(speeds),
                                 np.ones(len(speeds), bool), 1e-300))
        assert np.allclose(got, want)


def test_total_outage_and_unusual_speeds_defer_alike():
    speeds = np.array([1.0, 2.0, 3.0])
    assert survivor_fractions(speeds, np.zeros(3, bool), 0.5) is None
    # A non-positive or non-finite survivor speed takes the numpy body.
    with np.errstate(invalid="ignore"):
        for bad in (0.0, -1.0, np.inf, np.nan):
            odd = np.array([1.0, bad, 3.0])
            assert _same(survivor_fractions(odd, np.ones(3, bool), 0.5),
                         _numpy(survivor_fractions, odd, np.ones(3, bool), 0.5))


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 128, 129, 130, 257, 1000])
def test_kernel_sums_in_numpys_order(n):
    """The kernel's ndarray.sum, in the order the load-time probe chose,
    through every branch: the plain loop, eight accumulators, halving."""
    np_sum = ckernel.entry("np_sum")
    a = np.random.default_rng(n).lognormal(0.0, 3.0, n)
    seeded = ckernel._fns.sum_seeded
    assert np_sum(a.ctypes.data, a.size, seeded) == float(a.sum())
