"""The compiled estimator step against the per-element oracle.

A control window reaches the controller's estimators in two calls —
``observe_arrivals`` and ``observe_services_grouped`` (witnesses plus
response times) — which run one compiled call each over the state
vectors :mod:`repro.metrics.online` lays out, or the estimators' batch
forms without the kernel.  Either way the state, and every decision the
controller takes from it, must be bit for bit what the per-job calls
(``observe_arrival``, ``observe_service``, ``observe_response``) leave,
re-solved by the Python snapshot and the numpy Algorithm 1 body:
zero gaps, tied timestamps, P² warm-up restarting at every resolve,
windows long enough for the P² lane loop, servers that complete
nothing, a server going down, and a checkpoint round trip mid-run.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service.controller import QuasiStaticController
from repro.sim import ckernel

SPEEDS = (1.0, 2.0, 3.0, 0.5)


@pytest.fixture(params=["python", "c"])
def kernel_path(request, monkeypatch):
    """The kernel path (skipped without a kernel) or the numpy/Python one."""
    if request.param == "python":
        monkeypatch.setattr(ckernel, "_fns", False)
    elif not ckernel.kernel_available():
        pytest.skip("compiled kernel unavailable")
    return request.param


server = st.integers(min_value=0, max_value=len(SPEEDS) - 1)
window_strategy = st.tuples(
    st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=2.0)),
        max_size=40,
    ),
    # Half the windows complete more jobs than the P² warm-up takes, so
    # the four sets reach the compiled lane loop within the window.
    st.one_of(
        st.lists(server, max_size=6),
        st.lists(server, min_size=6, max_size=40),
    ),
)


def _window(rng, gaps, servers, t0):
    """Arrivals from *gaps* after *t0*; completions on *servers*."""
    times = t0 + np.cumsum(np.asarray(gaps, dtype=float))
    sizes = rng.exponential(1.0, times.size)
    servers = np.asarray(servers, dtype=np.int64)
    done_sizes = rng.exponential(1.0, servers.size)
    svc = rng.exponential(0.5, servers.size) + 1e-3
    responses = svc + rng.exponential(1.0, servers.size)
    return times, sizes, servers, done_sizes, svc, responses


def _fold_batch(ctl, times, sizes, servers, done_sizes, svc, responses):
    ctl.observe_arrivals(times, sizes)
    order = np.argsort(servers, kind="stable")
    offsets = np.zeros(len(SPEEDS) + 1, dtype=np.int64)
    np.cumsum(np.bincount(servers, minlength=len(SPEEDS)), out=offsets[1:])
    witnesses = (done_sizes / svc)[order]
    ctl.observe_services_grouped(witnesses, offsets, responses)


def _fold_per_job(ctl, times, sizes, servers, done_sizes, svc, responses):
    for t, x in zip(times.tolist(), sizes.tolist()):
        ctl.observe_arrival(t, x)
    for s, x, v in zip(servers.tolist(), done_sizes.tolist(), svc.tolist()):
        ctl.observe_service(s, x, v)
    for r in responses.tolist():
        ctl.observe_response(r)


def _decision_key(d):
    est = d.estimate
    return (
        d.time, d.alphas.tobytes(), d.swapped, d.resolved, d.shed_fraction,
        d.reason, repr(d.window_p50), repr(d.window_p99),
        None if est is None else (
            repr(est.arrival_rate), repr(est.mean_size), est.speeds.tobytes(),
            repr(est.utilization),
        ),
    )


@contextlib.contextmanager
def _no_kernel():
    """The oracle's re-solve: the Python snapshot and numpy Algorithm 1."""
    saved = ckernel._fns
    ckernel._fns = False
    try:
        yield
    finally:
        ckernel._fns = saved


def _restored(ctl):
    """A fresh controller loaded from *ctl*'s checkpoint, via JSON."""
    twin = QuasiStaticController(SPEEDS, window=5.0, slo_target=1.5,
                                 min_responses_to_shed=3)
    twin.load_state(json.loads(json.dumps(ctl.state_dict())))
    return twin


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    windows=st.lists(window_strategy, min_size=1, max_size=6),
    checkpoint_at=st.integers(min_value=0, max_value=6),
    down=st.tuples(st.integers(min_value=0, max_value=6),
                   st.integers(min_value=0, max_value=len(SPEEDS) - 1)),
)
# The fixture only picks the kernel path, the same for every example.
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_compiled_step_matches_per_job_calls(kernel_path, seed, windows,
                                             checkpoint_at, down):
    rng_batch = np.random.default_rng(seed)
    rng_oracle = np.random.default_rng(seed)
    kwargs = dict(window=5.0, slo_target=1.5, min_responses_to_shed=3)
    batch = QuasiStaticController(SPEEDS, **kwargs)
    oracle = QuasiStaticController(SPEEDS, **kwargs)
    t = 0.0
    for k, (gaps, servers) in enumerate(windows):
        if k == checkpoint_at:
            batch = _restored(batch)
        if k == down[0]:  # the re-solve then runs over the survivors
            for ctl in (batch, oracle):
                ctl.mark_server_down(down[1], t)
        a = _window(rng_batch, gaps, servers, t)
        b = _window(rng_oracle, gaps, servers, t)
        _fold_batch(batch, *a)
        _fold_per_job(oracle, *b)
        t = float(a[0][-1]) if a[0].size else t
        end = t + 0.5
        with _no_kernel():
            want = _decision_key(oracle.resolve(end))
        assert _decision_key(batch.resolve(end)) == want
        t = end
        assert batch.state_dict() == oracle.state_dict()


def test_arrival_step_rejects_a_bad_batch_untouched(kernel_path):
    ctl = QuasiStaticController(SPEEDS, window=5.0)
    ctl.observe_arrivals(np.array([1.0, 2.0]), np.ones(2))
    before = ctl.state_dict()
    with pytest.raises(ValueError, match=r"1\.5 after 2\.0"):
        ctl.observe_arrivals(np.array([1.5, 3.0]), np.ones(2))
    with pytest.raises(ValueError, match="nan"):
        ctl.observe_arrivals(np.array([3.0, np.nan]), np.ones(2))
    if kernel_path == "c":  # the batch forms run estimator by estimator
        assert ctl.state_dict() == before
    ctl.observe_arrivals(np.array([3.0, 3.0]), np.ones(2))
    assert ctl.estimator.arrivals_seen == 4


#: A controller checkpoint in the JSON schema: three servers, one down
#: and not yet re-solved, the lifetime P² sets started and the window
#: sets three samples into their warm-up.
CHECKPOINT = json.loads("""
{"alphas": [0.0, 0.0, 1.0], "estimator": {"arrivals_seen": 11, "ewma_rate":
{"gaps": {"count": 8, "norm": 0.3365795687109374, "raw": 0.7938090464453125},
"last": 19.5}, "mean_size": {"count": 11, "norm": 0.4311999077235399,
"raw": 0.4935901340502734}, "speed": {"ewmas": [{"count": 3, "norm": 0.142625,
"raw": 0.12172500000000001}, {"count": 0, "norm": 0.0, "raw": 0.0},
{"count": 4, "norm": 0.18549375, "raw": 0.5087375}]}, "up": [true, false, true],
"windowed_rate": {"times": [9.5, 10.5, 12.0, 12.0, 15.5, 19.0, 19.5]}},
"membership_dirty": true, "membership_events": 1, "p50": {"count": 7,
"init": [], "n": [0.0, 2.0, 3.0, 4.0, 6.0], "np": [0.0, 1.5, 3.0, 4.5, 6.0],
"p": 0.5, "q": [0.25, 0.75, 1.0, 1.25, 3.5]}, "p99": {"count": 7, "init": [],
"n": [0.0, 2.0, 4.0, 5.0, 6.0], "np": [0.0, 2.97, 5.94, 5.97, 6.0], "p": 0.99,
"q": [0.25, 0.75, 1.4444444444444442, 2.083333333333333, 3.5]}, "resolves": 1,
"responses_seen": 7, "shed_fraction": 0.0, "swaps": 1, "up": [true, false, true],
"win_p50": {"count": 3, "init": [0.75, 3.5, 0.25], "n": null, "np": null,
"p": 0.5, "q": null}, "win_p99": {"count": 3, "init": [0.75, 3.5, 0.25],
"n": null, "np": null, "p": 0.99, "q": null}}
""")


def test_schema_checkpoint_restores_unchanged(kernel_path):
    restored = QuasiStaticController([1.0, 2.0, 3.0], window=10.0)
    restored.load_state(CHECKPOINT)
    assert restored.state_dict() == CHECKPOINT
    assert json.dumps(restored.state_dict(), sort_keys=True) == json.dumps(
        CHECKPOINT, sort_keys=True
    )
    # ... and carries on exactly as a per-job twin restored alike.
    twin = QuasiStaticController([1.0, 2.0, 3.0], window=10.0)
    twin.load_state(CHECKPOINT)
    times, sizes = np.array([20.0, 21.5, 21.5]), np.array([1.0, 0.5, 2.0])
    restored.observe_arrivals(times, sizes)
    restored.observe_services_grouped(
        np.array([2.0, 4.0]), np.array([0, 1, 1, 2]), np.array([0.5, 1.75])
    )
    for t, x in zip(times.tolist(), sizes.tolist()):
        twin.observe_arrival(t, x)
    twin.observe_service(0, 1.0, 0.5)
    twin.observe_service(2, 2.0, 0.5)
    for r in (0.5, 1.75):
        twin.observe_response(r)
    with _no_kernel():
        want = _decision_key(twin.resolve(30.0))
    assert _decision_key(restored.resolve(30.0)) == want
    assert restored.state_dict() == twin.state_dict()


def test_inconsistent_quantile_checkpoint_is_refused():
    bad = json.loads(json.dumps(CHECKPOINT))
    bad["win_p50"]["count"] = 4  # three warm-up samples on record
    ctl = QuasiStaticController([1.0, 2.0, 3.0], window=10.0)
    with pytest.raises(ValueError, match="inconsistent quantile state"):
        ctl.load_state(bad)


def test_completion_step_refuses_offsets_outside_the_witnesses():
    if ckernel.entry("completions") is None:
        pytest.skip("compiled kernel unavailable")
    ctl = QuasiStaticController(SPEEDS, window=5.0)
    before = ctl.state_dict()
    for offsets in ([0, 5, 1, 2, 3], [0, 1, 2, 3, 9], [-1, 0, 1, 2, 3], [0, 1, 2, 3]):
        with pytest.raises(ValueError, match="non-decreasing bounds"):
            ctl.observe_services_grouped(np.ones(3), np.array(offsets), None)
    assert ctl.state_dict() == before
