"""Regression tests for the memoized Algorithm 2 sequence builder.

The memo used to store the *caller's* dispatcher alongside the cached
targets; a caller that reset that same object to a different allocation
and later triggered a prefix extension got the extension generated under
the wrong allocation — zero-share servers leaked into the cached
sequence.  The builder now owns a private dispatcher per entry, and the
key carries the full allocation byte pattern so vectors differing only
in which server is zeroed never share an entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dispatch import RoundRobinDispatcher, build_dispatch_sequence
from repro.dispatch import round_robin as rr_module
from repro.dispatch import sequence_memo_key
from repro.dispatch.round_robin import SequenceRoundRobin
from repro.sim import ckernel, fastpath


@pytest.fixture(autouse=True)
def clean_memo():
    rr_module._sequence_memo.clear()
    yield
    rr_module._sequence_memo.clear()


def oracle_sequence(alphas, count, guard_init=1.0):
    """Fresh-dispatcher reference: no memo, no shared state."""
    d = RoundRobinDispatcher(guard_init=guard_init)
    d.reset(np.asarray(alphas, dtype=float))
    return d.select_batch(np.zeros(count))


def test_matches_fresh_dispatcher_bit_exactly():
    alphas = np.array([0.1, 0.2, 0.3, 0.4])
    seq, status = build_dispatch_sequence(alphas, 500)
    assert status == "miss"
    np.testing.assert_array_equal(seq, oracle_sequence(alphas, 500))
    assert seq.dtype == np.int64


def test_prefix_statuses_and_consistency():
    alphas = np.array([0.25, 0.75])
    full, status = build_dispatch_sequence(alphas, 200)
    assert status == "miss"
    prefix, status = build_dispatch_sequence(alphas, 50)
    assert status == "hit"
    np.testing.assert_array_equal(prefix, full[:50])
    extended, status = build_dispatch_sequence(alphas, 400)
    assert status == "extend"
    np.testing.assert_array_equal(extended[:200], full)
    np.testing.assert_array_equal(extended, oracle_sequence(alphas, 400))


def test_caller_reset_cannot_corrupt_extension():
    """The confirmed aliasing bug: one dispatcher object reused across
    allocations, then a prefix extension of the first entry.

    With the memo holding the live caller dispatcher, the extension ran
    under the *second* allocation and dispatched jobs to server 2 —
    which holds an exactly zero share under the first allocation.
    """
    first = np.array([0.5, 0.5, 0.0])
    second = np.array([0.2, 0.2, 0.6])
    shared = RoundRobinDispatcher()

    shared.reset(first)
    seq, _ = build_dispatch_sequence(shared.alphas, 64, guard_init=shared.guard_init)
    shared.reset(second)  # caller moves on; memo entry must not notice
    build_dispatch_sequence(shared.alphas, 64, guard_init=shared.guard_init)

    fresh = RoundRobinDispatcher()
    fresh.reset(first)
    extended, status = build_dispatch_sequence(
        fresh.alphas, 256, guard_init=fresh.guard_init
    )
    assert status == "extend"
    np.testing.assert_array_equal(extended, oracle_sequence(first, 256))
    assert 2 not in extended  # the zero-share server never appears


def test_zero_share_servers_never_dispatched():
    alphas = np.array([0.0, 0.4, 0.0, 0.6, 0.0])
    seq, _ = build_dispatch_sequence(alphas, 300)
    assert set(np.unique(seq)) <= {1, 3}
    counts = np.bincount(seq, minlength=5)
    np.testing.assert_allclose(counts / 300, alphas, atol=0.02)


def test_key_distinguishes_which_server_is_zero():
    a = np.array([0.5, 0.5, 0.0])
    b = np.array([0.5, 0.0, 0.5])
    assert sequence_memo_key(a) != sequence_memo_key(b)
    seq_a, _ = build_dispatch_sequence(a, 100)
    seq_b, _ = build_dispatch_sequence(b, 100)
    assert len(rr_module._sequence_memo) == 2
    assert 2 not in seq_a
    assert 1 not in seq_b
    np.testing.assert_array_equal(seq_a, oracle_sequence(a, 100))
    np.testing.assert_array_equal(seq_b, oracle_sequence(b, 100))


def test_key_distinguishes_guard_init():
    alphas = np.array([0.3, 0.7])
    build_dispatch_sequence(alphas, 50, guard_init=1.0)
    build_dispatch_sequence(alphas, 50, guard_init=0.0)
    assert len(rr_module._sequence_memo) == 2


def test_memo_is_lru_bounded():
    for i in range(2, 2 + rr_module._SEQUENCE_MEMO_ENTRIES + 3):
        alphas = np.full(i, 1.0 / i)
        build_dispatch_sequence(alphas, 10)
    assert len(rr_module._sequence_memo) == rr_module._SEQUENCE_MEMO_ENTRIES


def test_fastpath_wrapper_uses_builder():
    """`_dispatch_targets` must delegate for round robin (memo statuses
    preserved) and bypass for everything else."""
    alphas = np.array([0.5, 0.5, 0.0])
    d = RoundRobinDispatcher()
    d.reset(alphas)
    targets = fastpath._dispatch_targets(d, np.ones(128))
    np.testing.assert_array_equal(targets, oracle_sequence(alphas, 128))
    # Caller resets its dispatcher mid-flight; the cached entry survives.
    d.reset(np.array([0.2, 0.2, 0.6]))
    d.reset(alphas)
    extended = fastpath._dispatch_targets(d, np.ones(512))
    np.testing.assert_array_equal(extended, oracle_sequence(alphas, 512))
    assert 2 not in extended


_ALLOCATIONS = st.lists(
    st.one_of(st.just(0), st.integers(1, 50)), min_size=1, max_size=7
).filter(any)


@pytest.mark.parametrize("path", ["compiled", "python"])
@given(weights=_ALLOCATIONS, counts=st.lists(st.integers(0, 300), min_size=1,
                                             max_size=3))
@settings(max_examples=100, deadline=None)
def test_swap_state_matches_python_dispatcher(path, weights, counts):
    """A swap's memo miss (and later extensions) leaves the private
    dispatcher in the state a Python RoundRobinDispatcher reaches after
    the same number of selections: first-win order, assign and next."""
    rr_module._sequence_memo.clear()
    alphas = np.asarray(weights, dtype=float) / sum(weights)
    saved = ckernel._fns
    if path == "python":
        ckernel._fns = False
    try:
        served = SequenceRoundRobin()
        served.reset(alphas)
        got = np.concatenate([served.select_batch(np.zeros(c)) for c in counts])
    finally:
        ckernel._fns = saved
    targets, private = rr_module._sequence_memo[served._key]
    oracle = RoundRobinDispatcher()
    oracle.reset(alphas)
    want = oracle.select_batch(np.zeros(targets.size))
    np.testing.assert_array_equal(got, want[:got.size])
    np.testing.assert_array_equal(targets, want)
    assert private._started == oracle._started
    assert private._assign == oracle._assign
    assert [x.hex() for x in private._next] == [x.hex() for x in oracle._next]
    assert all(weights[i] > 0 for i in private._started)
