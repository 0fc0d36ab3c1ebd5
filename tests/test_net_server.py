"""The server stub is a one-server bank: the service's window replay.

A stub answers each DISPATCH through its one-server
:class:`~repro.service.replay.ServerBank`.  Fed one stream in random
window splits, it must return the departures, service times and carried
free-up instant of :func:`~repro.sim.fastpath.lindley_window` over the
same splits, bit for bit, on both kernel paths.  The bank reuses its
buffers from window to window, so a reply must own its arrays.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.protocol import Dispatch, pack, unpack
from repro.net.server import ServerStub
from repro.sim.fastpath import lindley_window

from .conftest import KERNEL_PATHS, kernel_path


def _stream(seed: int, n: int):
    """Arrival times, sizes, random window bounds and a server speed."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(0.5, n))
    sizes = rng.lognormal(0.0, 1.2, n)
    cuts = np.sort(rng.integers(0, n + 1, rng.integers(0, 8)))
    bounds = np.concatenate([[0], cuts, [n]])
    return times, sizes, bounds, float(rng.uniform(0.2, 5.0))


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestServerStub:
    @pytest.mark.parametrize("path", KERNEL_PATHS)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_window_splits_match_lindley_window_bit_for_bit(
        self, path, seed, n
    ):
        """Slices decoded from their frames, as the wire hands them
        over (read-only views), some of them empty."""
        times, sizes, bounds, speed = _stream(seed, n)
        with kernel_path(path):
            stub = ServerStub(3, speed)
            free_at = 0.0
            for w, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                t, x = times[lo:hi], sizes[lo:hi]
                msg = unpack(pack(Dispatch(window=w, server=3, times=t,
                                           sizes=x)))
                reply = stub.handle_dispatch(msg)
                dep, svc, free_at = lindley_window(t, x, speed, free_at)
                assert (reply.window, reply.server) == (w, 3)
                assert reply.departures.tobytes() == dep.tobytes()
                assert reply.service_times.tobytes() == svc.tobytes()
                assert _bits(stub.bank.free_at[0]) == _bits(free_at)
            assert stub.jobs_replayed == n

    @pytest.mark.parametrize("path", KERNEL_PATHS)
    def test_a_reply_keeps_its_arrays_across_the_next_dispatch(self, path):
        with kernel_path(path):
            stub = ServerStub(0, 2.0)
            first = stub.handle_dispatch(Dispatch(
                window=0, server=0, times=[1.0, 2.0, 3.0], sizes=[4.0, 1.0, 1.0]
            ))
            kept = first.departures.copy(), first.service_times.copy()
            stub.handle_dispatch(Dispatch(
                window=1, server=0, times=[10.0, 11.0, 12.0],
                sizes=[8.0, 8.0, 8.0],
            ))
            assert np.array_equal(first.departures, kept[0])
            assert np.array_equal(first.service_times, kept[1])
            assert kept[0].tolist() == [3.0, 3.5, 4.0]

    @pytest.mark.parametrize("speed", [math.nan, math.inf, 0.0, -1.0])
    def test_a_speed_the_bank_refuses_is_refused(self, speed):
        with pytest.raises(ValueError, match="speeds must be positive"):
            ServerStub(0, speed)
