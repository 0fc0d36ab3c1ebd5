"""The P² lane loop against the scalar loop, byte for byte.

``est_completions`` folds a window's response times into the
controller's four P² sets.  Past their warm-up, a group of four sets
advances as the four lanes of one AVX2 vector, each lane doing the
scalar step's IEEE operations in the scalar step's order; before it,
for smaller groups and on other CPUs, the interleaved scalar loop runs.
The ``p2_probe`` entry runs the same fold with the lane path allowed or
not, so these tests drive both loops over the same streams — ties,
repeated values, signed zeros, subnormals, huge magnitudes, sets
restarted mid-stream, mixed quantiles — and compare whole 27-double
blocks after every call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.online import P2Quantile
from repro.sim import ckernel

_P2 = 27

probe = ckernel.entry("p2_probe")


def _blocks(ps) -> np.ndarray:
    """Fresh P² blocks, one per quantile of *ps*, in one vector."""
    blocks = np.zeros(_P2 * len(ps))
    for i, p in enumerate(ps):
        P2Quantile(p, storage=blocks[i * _P2:(i + 1) * _P2])
    return blocks


def _lane_path_taken() -> bool:
    """Whether four warmed sets take the lane loop on this build and CPU."""
    blocks = _blocks((0.5, 0.99, 0.5, 0.99))
    ckernel.p2_fold_probe_c(probe, blocks, np.arange(5.0), False)
    return ckernel.p2_fold_probe_c(probe, blocks, np.ones(1), True)


pytestmark = [
    pytest.mark.skipif(probe is None, reason="compiled kernel unavailable"),
    pytest.mark.skipif(
        probe is not None and not _lane_path_taken(),
        reason="no AVX2 lane loop: not an x86-64 build, or the CPU lacks AVX2",
    ),
]

#: Values that stress the markers: ties and repeats (a small pool),
#: signed zeros, subnormals, and magnitudes whose differences overflow.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.0, 1.0,
            2.0, 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308)

value = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=10.0),
)

segment = st.tuples(
    st.lists(value, max_size=40),
    # Sets restarted before this segment, as the window sets are at
    # every resolve.
    st.lists(st.integers(min_value=0, max_value=7), max_size=3),
)


@given(
    ps=st.lists(st.floats(min_value=1e-3, max_value=0.999), min_size=1,
                max_size=8),
    segments=st.lists(segment, min_size=1, max_size=6),
)
@settings(max_examples=400, deadline=None)
def test_lane_loop_matches_the_scalar_loop(ps, segments):
    lanes, scalar = _blocks(ps), _blocks(ps)
    for xs, restarts in segments:
        for i in restarts:
            if i < len(ps):
                lanes[i * _P2] = scalar[i * _P2] = 0.0
        xs = np.asarray(xs, dtype=np.float64)
        ckernel.p2_fold_probe_c(probe, lanes, xs, True)
        assert not ckernel.p2_fold_probe_c(probe, scalar, xs, False)
        assert lanes.tobytes() == scalar.tobytes()


def test_lane_loop_is_taken_only_past_every_warm_up():
    blocks = _blocks((0.5, 0.99, 0.25, 0.75))
    xs = np.linspace(0.5, 3.0, 5)
    # The warm-up takes every sample: nothing left for either loop.
    assert not ckernel.p2_fold_probe_c(probe, blocks, xs, True)
    assert ckernel.p2_fold_probe_c(probe, blocks, xs, True)
    blocks[2 * _P2] = 0.0  # one set restarts: five samples on the scalar loop
    assert not ckernel.p2_fold_probe_c(probe, blocks, xs, True)
    # Groups of fewer than four sets never take it.
    small = _blocks((0.5, 0.99, 0.5))
    ckernel.p2_fold_probe_c(probe, small, xs, True)
    assert not ckernel.p2_fold_probe_c(probe, small, xs, True)


def test_lane_loop_matches_per_sample_updates():
    """A long stream through the lanes reads what P2Quantile.update reads."""
    ps = (0.5, 0.99, 0.5, 0.99)
    blocks = _blocks(ps)
    oracle = [P2Quantile(p) for p in ps]
    xs = np.random.default_rng(3).exponential(1.0, 2000)
    xs[::7] = xs[3]  # ties
    assert ckernel.p2_fold_probe_c(probe, blocks, xs, True)
    for q in oracle:
        for x in xs.tolist():
            q.update(x)
    for i, q in enumerate(oracle):
        assert blocks[i * _P2:(i + 1) * _P2].tobytes() == (
            np.asarray(q._s).tobytes()
        )
