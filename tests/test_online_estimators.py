"""Tests for the quasi-static service estimators (repro.metrics.online)
and the absolute (un-normalized) rate profiles that drive them.

Satellite coverage: EWMA/windowed estimators converge to the true λ and
sᵢ on stationary streams, and re-converge after a step change within
the configured window (windowed) or a bounded number of observations
(EWMA).  Everything is seeded and tolerance-based.
"""

import json
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.online import (
    EwmaEstimator,
    EwmaRateEstimator,
    LatencyStats,
    OnlineWorkloadEstimator,
    P2Quantile,
    ServerSpeedEstimator,
    WindowedRateEstimator,
)
from repro.sim.modulated import RateProfile, drift_profile, step_profile


# ----------------------------------------------------------------------
# EwmaEstimator
# ----------------------------------------------------------------------


def test_ewma_first_update_is_exact():
    e = EwmaEstimator(0.05)
    assert math.isnan(e.value)
    assert e.update(7.25) == pytest.approx(7.25)


def test_ewma_bias_correction_early_window():
    """Early estimates equal the weighted mean of data seen so far, not
    a zero-pulled value."""
    e = EwmaEstimator(0.01)
    for x in (4.0, 4.0, 4.0):
        e.update(x)
    assert e.value == pytest.approx(4.0)


def test_ewma_converges_on_stationary_stream():
    rng = np.random.default_rng(42)
    e = EwmaEstimator(0.02)
    for x in rng.exponential(2.0, size=5000):
        e.update(x)
    assert e.value == pytest.approx(2.0, rel=0.15)


def test_ewma_rejects_bad_weight():
    with pytest.raises(ValueError):
        EwmaEstimator(0.0)
    with pytest.raises(ValueError):
        EwmaEstimator(1.5)


# ----------------------------------------------------------------------
# Rate estimators: stationary convergence
# ----------------------------------------------------------------------


def _poisson_times(rate, horizon, rng):
    gaps = rng.exponential(1.0 / rate, size=int(rate * horizon * 2) + 50)
    times = np.cumsum(gaps)
    return times[times <= horizon]


def test_ewma_rate_converges_to_true_lambda():
    rng = np.random.default_rng(7)
    est = EwmaRateEstimator(0.01)
    for t in _poisson_times(5.0, 2000.0, rng):
        est.observe(t)
    assert est.rate() == pytest.approx(5.0, rel=0.1)


def test_windowed_rate_converges_to_true_lambda():
    rng = np.random.default_rng(11)
    est = WindowedRateEstimator(window=200.0)
    times = _poisson_times(5.0, 1000.0, rng)
    for t in times:
        est.observe(t)
    assert est.rate(1000.0) == pytest.approx(5.0, rel=0.1)


def test_windowed_rate_early_times_unbiased():
    """Before one full window has elapsed, divide by elapsed time."""
    est = WindowedRateEstimator(window=100.0)
    for t in np.arange(0.5, 10.0, 0.5):  # 2 events per unit time
        est.observe(t)
    assert est.rate(10.0) == pytest.approx(2.0, rel=0.06)


@pytest.mark.parametrize("window", [math.nan, 0.0, -5.0])
def test_windowed_rate_refuses_a_window_that_is_not_positive(window):
    with pytest.raises(ValueError, match="window must be positive"):
        WindowedRateEstimator(window)


def test_windowed_rate_empty_window_reads_zero():
    est = WindowedRateEstimator(window=10.0)
    est.observe(1.0)
    assert est.rate(100.0) == 0.0


def test_rate_estimators_reject_decreasing_timestamps():
    for est in (EwmaRateEstimator(0.05), WindowedRateEstimator(10.0)):
        est.observe(5.0)
        with pytest.raises(ValueError):
            est.observe(4.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rate_estimators_reject_non_finite_timestamps(bad):
    """A NaN compares False against everything, so an ordering check
    alone lets it through and eviction then stalls behind it."""
    for est in (EwmaRateEstimator(0.05), WindowedRateEstimator(10.0)):
        est.observe(1.0)
        est.observe(2.0)
        with pytest.raises(ValueError, match=str(bad)):
            est.observe(bad)
        with pytest.raises(ValueError, match=str(bad)):
            est.observe_batch(np.array([3.0, bad, 50.0, 100.0]))
        with pytest.raises(ValueError, match=str(bad)):
            est.observe_batch(np.array([bad]))
        # The rejected input left no trace: the stream carries on.
        est.observe_batch(np.array([50.0, 100.0]))
    windowed = WindowedRateEstimator(10.0)
    for t in (1.0, 2.0, 50.0, 100.0):
        windowed.observe(t)
    assert windowed.rate(100.0) == 0.1
    assert windowed.state_dict() == {"times": [100.0]}


def test_rate_estimators_reject_non_finite_checkpoints():
    with pytest.raises(ValueError, match="nan"):
        WindowedRateEstimator(10.0).load_state({"times": [1.0, math.nan, 50.0]})
    with pytest.raises(ValueError, match="non-decreasing"):
        WindowedRateEstimator(10.0).load_state({"times": [5.0, 4.0]})
    ewma = EwmaRateEstimator(0.05)
    state = ewma.state_dict()
    state["last"] = math.inf
    with pytest.raises(ValueError, match="inf"):
        ewma.load_state(state)


def test_batch_ordering_error_names_both_timestamps():
    est = WindowedRateEstimator(10.0)
    est.observe(5.0)
    with pytest.raises(ValueError, match=r"4\.0 after 5\.0"):
        est.observe_batch(np.array([4.0, 6.0]))
    with pytest.raises(ValueError, match=r"6\.0 after 7\.0"):
        est.observe_batch(np.array([6.0, 7.0, 6.0]))


# ----------------------------------------------------------------------
# WindowedRateEstimator against a deque model
# ----------------------------------------------------------------------


class _DequeWindow:
    """Reference model of the sliding-window rate: a deque of builtin
    floats, appended one timestamp at a time and popped from the front
    while the oldest lies below ``now − window``."""

    def __init__(self, window: float):
        self.window = window
        self.times: deque[float] = deque()

    def observe(self, t: float) -> None:
        self.times.append(t)
        self._evict(t)

    def _evict(self, now: float) -> None:
        while self.times and self.times[0] < now - self.window:
            self.times.popleft()

    def rate(self, now: float) -> float:
        self._evict(now)
        span = min(now, self.window)
        if span <= 0.0 or not self.times:
            return 0.0
        return len(self.times) / span

    def state_dict(self) -> dict:
        return {"times": list(self.times)}


#: Dyadic steps against a dyadic window keep every sum exact, so drawn
#: timestamps land exactly on ``now − window`` cutoffs and tie often.
_MODEL_WINDOW = 2.0
_step = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 2.5, 6.0]),
    st.floats(min_value=0.0, max_value=3.0),
)
_model_op = st.one_of(
    st.tuples(st.just("observe"), _step),
    st.tuples(st.just("batch"), st.lists(_step, max_size=12)),
    # [t, t + window]: the batch's own first element sits on its cutoff.
    st.tuples(st.just("cutoff"), _step),
    st.tuples(st.just("rate"), st.sampled_from([-1.0, 0.0, 0.5, 2.0, 2.25, 9.0])),
    st.tuples(st.just("roundtrip"), st.just(0.0)),
)


def _assert_same(est, model):
    state = est.state_dict()
    assert state == model.state_dict()
    assert all(type(t) is float for t in state["times"])


def _apply(est, model, op, arg, t):
    """Run one drawn operation on both; returns (est, last timestamp)."""
    if op == "observe":
        t += arg
        est.observe(t)
        model.observe(t)
    elif op in ("batch", "cutoff"):
        steps = arg if op == "batch" else [arg, _MODEL_WINDOW]
        times = t + np.cumsum(steps)
        est.observe_batch(times)
        for x in times.tolist():
            model.observe(x)
        if times.size:
            t = float(times[-1])
    elif op == "rate":
        assert est.rate(t + arg) == model.rate(t + arg)
    else:
        fresh = WindowedRateEstimator(_MODEL_WINDOW)
        fresh.load_state(json.loads(json.dumps(est.state_dict())))
        est = fresh
    return est, t


@given(ops=st.lists(_model_op, max_size=40), start=st.sampled_from([0.0, 0.5, 1e6]))
@settings(max_examples=300, deadline=None)
def test_windowed_rate_matches_deque_model(ops, start):
    est, model = WindowedRateEstimator(_MODEL_WINDOW), _DequeWindow(_MODEL_WINDOW)
    t = start
    for op, arg in ops:
        est, t = _apply(est, model, op, arg, t)
        _assert_same(est, model)
    assert est.rate(t) == model.rate(t)


def test_windowed_rate_long_stream_grows_and_compacts():
    """A long stream through a small window, densifying over time:
    the buffer doubles several times and compacts far more often, and
    never departs from the model."""
    rng = np.random.default_rng(17)
    window = 0.5
    est, model = WindowedRateEstimator(window), _DequeWindow(window)
    grows, compactions, t = 0, 0, 0.0
    for i in range(3000):
        density = 20.0 * 1.002**i  # arrivals per unit time, rising ~400×
        k = int(rng.integers(0, 40))
        times = t + np.cumsum(rng.exponential(1.0 / density, k))
        head, cap = est._head, est._buf.size
        if i % 3:
            est.observe_batch(times)
        else:
            for x in times.tolist():
                est.observe(x)
        for x in times.tolist():
            model.observe(x)
        if k:
            t = float(times[-1])
        if est._buf.size > cap:
            grows += 1
        elif est._head < head:
            compactions += 1
        if i % 97 == 0:
            assert est.rate(t + 0.1) == model.rate(t + 0.1)
        assert est.state_dict() == model.state_dict()
    assert grows >= 5
    assert compactions >= 100


# ----------------------------------------------------------------------
# Re-convergence after a step change
# ----------------------------------------------------------------------


def test_windowed_rate_reconverges_within_one_window():
    """One window after the step, the old regime is fully forgotten."""
    rng = np.random.default_rng(3)
    window = 100.0
    est = WindowedRateEstimator(window=window)
    before = _poisson_times(2.0, 500.0, rng)
    after = 500.0 + _poisson_times(4.0, 500.0, rng)
    for t in np.concatenate([before, after]):
        est.observe(t)
    assert est.rate(500.0 + window) == pytest.approx(4.0, rel=0.15)
    assert est.rate(1000.0) == pytest.approx(4.0, rel=0.15)


def test_ewma_rate_reconverges_after_step():
    rng = np.random.default_rng(5)
    est = EwmaRateEstimator(0.02)
    before = _poisson_times(2.0, 500.0, rng)
    after = 500.0 + _poisson_times(4.0, 500.0, rng)
    for t in np.concatenate([before, after]):
        est.observe(t)
    # ~2000 post-step observations against a 1/0.02 = 50-sample memory.
    assert est.rate() == pytest.approx(4.0, rel=0.1)


# ----------------------------------------------------------------------
# Speed estimator and the facade
# ----------------------------------------------------------------------


def test_speed_estimator_converges_and_keeps_nominal():
    rng = np.random.default_rng(13)
    est = ServerSpeedEstimator([1.0, 2.5], weight=0.05)
    for size in rng.exponential(1.0, size=500):
        est.observe(0, size, size / 3.0)  # server 0 actually runs at 3.0
    speeds = est.speeds()
    assert speeds[0] == pytest.approx(3.0, rel=1e-9)
    assert speeds[1] == 2.5  # no observations: nominal passes through


def test_speed_estimator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ServerSpeedEstimator([1.0, -1.0])
    est = ServerSpeedEstimator([1.0])
    with pytest.raises(ValueError):
        est.observe(0, 1.0, 0.0)


def test_workload_estimator_snapshot_tracks_utilization():
    rng = np.random.default_rng(29)
    speeds = np.array([1.0, 2.0])
    est = OnlineWorkloadEstimator(speeds, window=200.0, ewma_weight=0.002)
    lam, mean_size = 4.0, 0.5
    times = _poisson_times(lam, 1000.0, rng)
    sizes = rng.exponential(mean_size, size=times.size)
    for i, (t, x) in enumerate(zip(times, sizes)):
        est.observe_arrival(t, x)
        est.observe_service(i % 2, x, x / speeds[i % 2])
    snap = est.snapshot(1000.0)
    assert snap.usable
    true_rho = lam * mean_size / speeds.sum()
    assert snap.arrival_rate == pytest.approx(lam, rel=0.1)
    assert snap.mean_size == pytest.approx(mean_size, rel=0.15)
    np.testing.assert_allclose(snap.speeds, speeds, rtol=1e-9)
    assert snap.utilization == pytest.approx(true_rho, rel=0.2)


def test_workload_estimator_empty_snapshot_not_usable():
    snap = OnlineWorkloadEstimator([1.0], window=10.0).snapshot(0.0)
    assert not snap.usable
    assert math.isnan(snap.utilization)


# ----------------------------------------------------------------------
# Absolute (un-normalized) rate profiles
# ----------------------------------------------------------------------


def test_rate_profile_normalize_false_keeps_absolute_multipliers():
    p = RateProfile([2.0, 4.0], 10.0, normalize=False)
    assert not p.normalized
    assert p.multiplier_at(5.0) == 2.0
    assert p.multiplier_at(15.0) == 4.0
    assert p.cumulative(20.0) == pytest.approx(60.0)
    assert p.inverse_cumulative(60.0) == pytest.approx(20.0)


def test_step_profile_single_step_no_wrap():
    p = step_profile(step_time=100.0, factor=2.0, horizon=350.0)
    assert p.multiplier_at(50.0) == 1.0
    for t in (150.0, 250.0, 349.0):
        assert p.multiplier_at(t) == 2.0
    assert p.period >= 350.0  # the step never repeats within the run
    assert p.cumulative(300.0) == pytest.approx(100.0 + 2.0 * 200.0)


def test_step_profile_validation():
    with pytest.raises(ValueError):
        step_profile(step_time=0.0, factor=2.0, horizon=10.0)
    with pytest.raises(ValueError):
        step_profile(step_time=10.0, factor=2.0, horizon=5.0)


def test_drift_profile_ramps_monotonically():
    p = drift_profile(1.0, 3.0, horizon=640.0, segments=64)
    samples = [p.multiplier_at(t) for t in np.linspace(1.0, 639.0, 64)]
    assert all(b >= a for a, b in zip(samples, samples[1:]))
    assert samples[0] == pytest.approx(1.0, abs=0.05)
    assert samples[-1] == pytest.approx(3.0, abs=0.05)


# ----------------------------------------------------------------------
# P2Quantile (streaming p-quantile, Jain & Chlamtac 1985)
# ----------------------------------------------------------------------


def test_p2_small_sample_is_exact_quantile():
    q = P2Quantile(0.5)
    assert math.isnan(q.value)
    for x in (5.0, 1.0, 3.0):
        q.update(x)
    data = np.array([5.0, 1.0, 3.0])
    assert q.value == pytest.approx(
        float(np.quantile(data, 0.5, method="linear"))
    )


def test_p2_median_converges_on_exponential_stream():
    rng = np.random.default_rng(7)
    data = rng.exponential(10.0, size=20_000)
    q = P2Quantile(0.5)
    for x in data:
        q.update(float(x))
    true = 10.0 * math.log(2.0)
    assert q.value == pytest.approx(true, rel=0.05)


def test_p2_p99_tracks_tail():
    rng = np.random.default_rng(11)
    data = rng.exponential(1.0, size=50_000)
    q = P2Quantile(0.99)
    for x in data:
        q.update(float(x))
    assert q.value == pytest.approx(float(np.quantile(data, 0.99)), rel=0.1)


def test_p2_state_round_trip_continues_identically():
    rng = np.random.default_rng(3)
    data = [float(x) for x in rng.exponential(2.0, size=500)]
    a = P2Quantile(0.9)
    for x in data[:200]:
        a.update(x)
    b = P2Quantile(0.9)
    b.load_state(a.state_dict())
    for x in data[200:]:
        a.update(x)
        b.update(x)
    assert a.value == b.value
    assert a.count == b.count


def test_p2_state_rejects_probability_mismatch():
    a = P2Quantile(0.5)
    b = P2Quantile(0.99)
    with pytest.raises(ValueError, match="0.5"):
        b.load_state(a.state_dict())


def test_p2_rejects_bad_probability():
    with pytest.raises(ValueError):
        P2Quantile(0.0)
    with pytest.raises(ValueError):
        P2Quantile(1.0)


# ----------------------------------------------------------------------
# Membership-aware workload estimation
# ----------------------------------------------------------------------


def _feed(est, rate=1.0, horizon=400.0, size=2.0, seed=0):
    rng = np.random.default_rng(seed)
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t > horizon:
            break
        est.observe_arrival(t, size)
    return horizon


def test_membership_mask_shrinks_capacity():
    speeds = np.array([1.0, 2.0, 3.0])
    est = OnlineWorkloadEstimator(speeds, window=100.0)
    now = _feed(est, rate=1.0, size=2.0)
    full = est.snapshot(now)
    est.set_membership(np.array([True, True, False]))
    masked = est.snapshot(now)
    # Same offered load over half the capacity: utilization doubles.
    assert masked.utilization == pytest.approx(2.0 * full.utilization, rel=1e-9)
    assert masked.up is not None and not masked.up[2]
    # Speeds over survivors only must still be present for the solver.
    assert masked.usable


def test_membership_all_up_restores_full_capacity():
    speeds = np.array([1.0, 2.0, 3.0])
    est = OnlineWorkloadEstimator(speeds, window=100.0)
    now = _feed(est)
    full = est.snapshot(now)
    est.set_membership(np.array([True, False, True]))
    est.set_membership(np.array([True, True, True]))
    again = est.snapshot(now)
    assert again.utilization == full.utilization
    assert again.up is None


def test_membership_mask_shape_is_validated():
    est = OnlineWorkloadEstimator(np.array([1.0, 2.0]), window=50.0)
    with pytest.raises(ValueError):
        est.set_membership(np.array([True, True, False]))


def test_estimator_state_round_trip_continues_identically():
    speeds = np.array([1.0, 2.0, 3.0])
    a = OnlineWorkloadEstimator(speeds, window=100.0)
    _feed(a, horizon=200.0)
    a.observe_service(1, 2.0, 1.1)
    b = OnlineWorkloadEstimator(speeds, window=100.0)
    b.load_state(a.state_dict())
    for est in (a, b):
        est.observe_arrival(201.0, 2.0)
        est.observe_service(2, 3.0, 1.2)
    sa, sb = a.snapshot(210.0), b.snapshot(210.0)
    assert sa.arrival_rate == sb.arrival_rate
    assert sa.utilization == sb.utilization
    assert np.array_equal(sa.speeds, sb.speeds)


# ---------------------------------------------------------------------------
# LatencyStats (dispatch-plane wall-clock accounting)
# ---------------------------------------------------------------------------


def test_latency_stats_amortizes_over_jobs():
    ls = LatencyStats()
    ls.observe(0.002, jobs=100)
    ls.observe(0.001, jobs=50)
    assert ls.windows.count == 2
    assert ls.jobs == 150
    assert ls.total_seconds == pytest.approx(0.003)
    assert ls.ns_per_job == pytest.approx(0.003 * 1e9 / 150)


def test_latency_stats_empty_is_nan_not_zero():
    ls = LatencyStats()
    assert math.isnan(ls.ns_per_job)
    ls.observe(0.5, jobs=0)  # an empty window costs time but covers no jobs
    assert math.isnan(ls.ns_per_job)
    assert ls.total_seconds == 0.5


def test_latency_stats_rejects_negative_time():
    ls = LatencyStats()
    with pytest.raises(ValueError):
        ls.observe(-1e-9, jobs=1)


def test_latency_stats_as_dict_is_json_ready():
    import json

    ls = LatencyStats()
    for k in range(20):
        ls.observe(0.001 * (k + 1), jobs=10)
    d = ls.as_dict()
    json.dumps(d)  # must not raise
    assert d["windows"] == 20
    assert d["jobs"] == 200
    assert d["window_p50_s"] <= d["window_p99_s"]
