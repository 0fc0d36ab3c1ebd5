"""Tests for the quasi-static scheduler service (repro.service).

Includes the two issue acceptance checks: stationary-workload service
MRT within 5% of oracle static ORR, and recovery to within 5% of the
new oracle allocation within two re-solve periods after a 2× step in λ.
"""

import math

import numpy as np
import pytest

from repro.allocation.optimized import optimized_fractions
from repro.cli import main
from repro.dispatch.round_robin import RoundRobinDispatcher
from repro.distributions import distribution_from_mean_cv
from repro.queueing.network import HeterogeneousNetwork
from repro.service import (
    AdmissionGate,
    SchedulerService,
    ServerBank,
    ServiceConfig,
    SyntheticJobSource,
    TraceJobSource,
)
from repro.service.controller import QuasiStaticController
from repro.service.window import window_bounds, window_count
from repro.sim.arrivals import Workload
from repro.sim.modulated import step_profile

SPEEDS = (1.0, 2.0, 3.0)


def replay(bank, targets, times, sizes):
    """One window's ``(departures, service_times)``, copied out of the
    replay's scratch so a caller can keep them across windows."""
    dep, svc, _, _ = bank.replay_window_grouped(targets, times, sizes)
    return dep.copy(), svc.copy()


def make_source(rho, seed, *, profile=None, cv=1.0):
    workload = Workload(
        total_speed=sum(SPEEDS),
        utilization=rho,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
        arrival_cv=cv,
        rate_profile=profile,
    )
    return SyntheticJobSource(workload, seed)


# ----------------------------------------------------------------------
# ServerBank: windowed replay with carried backlog
# ----------------------------------------------------------------------


class TestServerBank:
    def test_windowed_replay_equals_whole(self):
        rng = np.random.default_rng(0)
        n_jobs = 400
        times = np.sort(rng.uniform(0.0, 100.0, n_jobs))
        sizes = rng.exponential(1.0, n_jobs)
        targets = rng.integers(0, len(SPEEDS), n_jobs)

        whole = ServerBank(SPEEDS)
        dep_whole, svc_whole = replay(whole, targets, times, sizes)

        chunked = ServerBank(SPEEDS)
        dep_parts, svc_parts = [], []
        for lo, hi in [(0, 100), (100, 150), (150, 400)]:
            d, s = replay(
                chunked, targets[lo:hi], times[lo:hi], sizes[lo:hi]
            )
            dep_parts.append(d)
            svc_parts.append(s)
        np.testing.assert_allclose(
            np.concatenate(dep_parts), dep_whole, rtol=1e-12
        )
        np.testing.assert_allclose(
            np.concatenate(svc_parts), svc_whole, rtol=1e-12
        )
        np.testing.assert_allclose(chunked.free_at, whole.free_at, rtol=1e-12)

    def test_fcfs_order_and_backlog(self):
        bank = ServerBank([1.0])
        dep, svc = replay(
            bank,
            np.zeros(3, dtype=int),
            np.array([0.0, 0.1, 0.2]),
            np.array([2.0, 1.0, 1.0]),
        )
        np.testing.assert_allclose(dep, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(svc, [2.0, 1.0, 1.0])
        assert bank.free_at[0] == 4.0
        # An empty window leaves the backlog untouched.
        replay(bank, np.empty(0, dtype=int), np.empty(0), np.empty(0))
        assert bank.free_at[0] == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerBank([1.0, -2.0])
        bank = ServerBank([1.0])
        with pytest.raises(ValueError):
            replay(bank, np.zeros(2, dtype=int), np.zeros(3), np.zeros(3))


# ----------------------------------------------------------------------
# Admission gate
# ----------------------------------------------------------------------


class TestAdmissionGate:
    def test_exact_long_run_fraction(self):
        gate = AdmissionGate()
        admitted = sum(gate.admit_mask(100, 0.7).sum() for _ in range(10))
        assert int(admitted) == 700

    def test_keep_all_and_validation(self):
        gate = AdmissionGate()
        assert gate.admit_mask(5, 1.0).all()
        assert not gate.admit_mask(5, 0.0).any()
        with pytest.raises(ValueError):
            gate.admit_mask(5, 1.2)

    def test_even_spacing(self):
        mask = AdmissionGate().admit_mask(10, 0.5)
        assert mask.sum() == 5
        # Maximally even: no two consecutive shed decisions at f=0.5.
        assert not np.any(~mask[:-1] & ~mask[1:])


# ----------------------------------------------------------------------
# Trace source
# ----------------------------------------------------------------------


class TestTraceJobSource:
    def test_incremental_slices(self):
        src = TraceJobSource([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 2.0, 2.0])
        t1, s1 = src.jobs_until(2.5)
        np.testing.assert_array_equal(t1, [1.0, 2.0])
        t2, _ = src.jobs_until(10.0)
        np.testing.assert_array_equal(t2, [3.0, 4.0])
        assert src.remaining == 0
        with pytest.raises(ValueError):
            src.jobs_until(5.0)  # horizon went backwards

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceJobSource([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TraceJobSource([1.0], [0.0])

    @pytest.mark.parametrize(
        ("times", "sizes", "message"),
        [([0.5, math.nan, 1.5], [1.0, 1.0, 1.0], "times must be finite"),
         ([0.5, 1.0, math.inf], [1.0, 1.0, 1.0], "times must be finite"),
         ([0.5, 1.0, 1.5], [1.0, math.nan, 1.0], "sizes must be positive"),
         ([0.5, 1.0, 1.5], [1.0, math.inf, 1.0], "sizes must be positive")],
    )
    def test_non_finite_records_are_refused(self, times, sizes, message):
        with pytest.raises(ValueError, match=message):
            TraceJobSource(times, sizes)

    def test_replay_of_a_nan_row_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        trace.write_text("0.5,1.0\nnan,1.0\n1.5,1.0\n")
        code = main(["serve", "--speeds", "1,2", "--duration", "10",
                     "--resolve-period", "5", "--replay", str(trace),
                     "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert "error: could not read trace" in err
        assert out == ""


# ----------------------------------------------------------------------
# Acceptance: stationary MRT vs oracle static ORR
# ----------------------------------------------------------------------


def oracle_mrt(alphas, times, sizes):
    dispatcher = RoundRobinDispatcher()
    dispatcher.reset(alphas)
    targets = dispatcher.select_batch(sizes)
    bank = ServerBank(SPEEDS)
    departures, _ = replay(bank, targets, times, sizes)
    return float((departures - times).mean())


class TestServiceAcceptance:
    def test_stationary_mrt_within_5pct_of_oracle(self):
        rho = 0.7
        times, sizes = make_source(rho, seed=42).jobs_until(5000.0)
        config = ServiceConfig(
            speeds=SPEEDS, duration=5000.0, control_period=100.0
        )
        report = SchedulerService(config, TraceJobSource(times, sizes)).run()
        assert report.clean_shutdown
        assert report.jobs_shed == 0  # stationary ρ=0.7 must not shed
        assert report.jobs_dispatched == times.size

        oracle = optimized_fractions(
            HeterogeneousNetwork(np.asarray(SPEEDS), utilization=rho)
        )
        baseline = oracle_mrt(oracle, times, sizes)
        gap = abs(report.time_averaged_mrt - baseline) / baseline
        assert gap < 0.05, f"service MRT off oracle by {gap:.1%}"

    def test_step_recovery_within_two_resolve_periods(self):
        rho, period, step_at, duration = 0.35, 100.0, 3000.0, 6000.0
        profile = step_profile(step_time=step_at, factor=2.0, horizon=duration)
        source = make_source(rho, seed=7, profile=profile)
        config = ServiceConfig(
            speeds=SPEEDS, duration=duration, control_period=period
        )
        report = SchedulerService(config, source).run()

        network = HeterogeneousNetwork(np.asarray(SPEEDS), utilization=rho)
        oracle_post = optimized_fractions(network.with_utilization(2 * rho))
        recovered = [
            w for w in report.windows if w.end >= step_at + 2 * period
        ]
        assert recovered, "no windows after the recovery deadline"
        first = recovered[0]
        err = float(np.max(np.abs(first.alphas - oracle_post)))
        assert err < 0.05, (
            f"allocation {first.alphas} still {err:.3f} from oracle "
            f"{oracle_post} two periods after the step"
        )
        # ...and it stays recovered, not a lucky sample.
        tail_err = np.mean(
            [float(np.max(np.abs(w.alphas - oracle_post))) for w in recovered]
        )
        assert tail_err < 0.05


# ----------------------------------------------------------------------
# Service behaviour
# ----------------------------------------------------------------------


class TestServiceConfigBounds:
    """NaN passes ``x <= 0``: every bound must be one NaN fails."""

    @pytest.mark.parametrize(
        ("field", "kw"),
        [("speeds", {"speeds": (math.nan, 1.0)}),
         ("speeds", {"speeds": (1.0, math.inf)}),
         ("duration", {"duration": math.nan}),
         ("duration", {"duration": math.inf}),
         ("control_period", {"control_period": math.nan}),
         ("slo_target", {"slo_target": math.nan}),
         ("estimator_window", {"estimator_window": math.nan}),
         ("estimator_window", {"estimator_window": -5.0}),
         ("ewma_weight", {"ewma_weight": math.nan}),
         ("ewma_weight", {"ewma_weight": 0.0}),
         ("shed_threshold", {"shed_threshold": math.nan}),
         ("shed_threshold", {"shed_threshold": 2.0}),
         ("rho_cap", {"rho_cap": math.nan}),
         ("rho_cap", {"rho_cap": 1.0}),
         ("max_shed_fraction", {"max_shed_fraction": math.nan}),
         ("max_shed_fraction", {"max_shed_fraction": 0.0}),
         ("swap_tolerance", {"swap_tolerance": math.nan}),
         ("swap_tolerance", {"swap_tolerance": -1.0})],
    )
    def test_non_finite_value_is_refused_naming_its_field(self, field, kw):
        args = {"speeds": SPEEDS, "duration": 1000.0, "control_period": 100.0}
        with pytest.raises(ValueError, match=field):
            ServiceConfig(**{**args, **kw})

    @pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
    def test_controller_refuses_a_swap_tolerance_below_zero_or_nan(self, tol):
        """NaN never swaps (the run stays on the initial split) and a
        negative tolerance swaps at every boundary, restarting the
        dispatch sequence each time."""
        with pytest.raises(ValueError, match="swap_tolerance"):
            QuasiStaticController(np.array(SPEEDS), window=10.0,
                                  swap_tolerance=tol)

    def test_zero_swap_tolerance_is_accepted(self):
        ServiceConfig(speeds=SPEEDS, duration=1000.0, control_period=100.0,
                      swap_tolerance=0.0)
        ctl = QuasiStaticController(np.array(SPEEDS), window=10.0,
                                    swap_tolerance=0.0)
        assert ctl.swap_tolerance == 0.0

    def test_serve_with_a_nan_speed_exits_2_naming_speeds(self, capsys):
        code = main(["serve", "--speeds", "nan,1", "--utilization", "0.5",
                     "--duration", "200", "--resolve-period", "100"])
        assert code == 2
        assert "error: speeds must be positive and finite" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize(
        ("flag", "value", "message"),
        [("--window", "nan", "estimator_window must be positive"),
         ("--window", "-5", "estimator_window must be positive"),
         ("--shed-threshold", "2", "shed_threshold must lie in (0, 1)"),
         ("--shed-threshold", "nan", "shed_threshold must lie in (0, 1)")],
    )
    def test_serve_with_a_bad_bound_exits_2_naming_it(self, capsys, flag,
                                                      value, message):
        code = main(["serve", "--speeds", "1,2,3", "--utilization", "0.5",
                     "--duration", "200", "--resolve-period", "100",
                     "--seed", "1", flag, value, "--json"])
        out, err = capsys.readouterr()
        assert code == 2
        assert f"error: {message}" in err
        assert out == ""


class TestSchedulerService:
    def test_deterministic_given_seed(self):
        config = ServiceConfig(
            speeds=SPEEDS, duration=1000.0, control_period=100.0
        )
        reports = [
            SchedulerService(config, make_source(0.6, seed=5)).run()
            for _ in range(2)
        ]
        a, b = reports
        assert a.jobs_dispatched == b.jobs_dispatched
        assert a.swaps == b.swaps
        assert a.time_averaged_mrt == b.time_averaged_mrt
        np.testing.assert_array_equal(a.final_alphas, b.final_alphas)

    def test_sheds_under_sustained_overload(self):
        duration = 5000.0
        profile = step_profile(step_time=1000.0, factor=1.6, horizon=duration)
        source = make_source(0.8, seed=11, profile=profile)  # offered ρ=1.28
        config = ServiceConfig(
            speeds=SPEEDS, duration=duration, control_period=100.0
        )
        report = SchedulerService(config, source).run()
        assert report.clean_shutdown
        assert report.jobs_shed > 0
        late = [w for w in report.windows if w.start >= duration * 0.7]
        shed_fraction = sum(w.shed for w in late) / sum(w.offered for w in late)
        # Deterministic thinning targets 1 − threshold/ρ̂ ≈ 0.26 here.
        assert shed_fraction == pytest.approx(1.0 - 0.95 / 1.28, abs=0.08)

    def test_report_serializes(self):
        import json

        config = ServiceConfig(
            speeds=SPEEDS, duration=500.0, control_period=100.0
        )
        report = SchedulerService(config, make_source(0.5, seed=3)).run()
        payload = json.dumps(report.as_dict())
        assert "jobs_dispatched" in payload
        assert len(report.windows) == 5

    def test_swap_only_at_boundaries(self):
        """Swaps happen only at window boundaries: the report counts
        one per window that closed with a swap."""
        config = ServiceConfig(
            speeds=SPEEDS, duration=800.0, control_period=100.0
        )
        service = SchedulerService(config, make_source(0.6, seed=9))
        report = service.run()
        assert report.swaps == sum(w.swapped for w in report.windows)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(speeds=(), duration=10.0, control_period=1.0)
        with pytest.raises(ValueError):
            ServiceConfig(speeds=(1.0,), duration=10.0, control_period=20.0)
        with pytest.raises(ValueError):
            ServiceConfig(speeds=(1.0, -1.0), duration=10.0, control_period=1.0)


class TestRestoreMaskLength:
    """A checkpoint's membership masks must cover every server: the
    compiled boundary reads one mask entry per server, so a short mask
    is refused, naming the field, before any state is written."""

    def controller(self):
        c = QuasiStaticController((1.0, 2.0, 3.0, 4.0), window=50.0)
        c.observe_arrivals(np.array([1.0, 2.0, 3.0]), np.ones(3))
        c.mark_server_down(3, 3.0)
        return c

    def altered(self, c):
        """*c*'s state with every field changed that a partial restore
        would visibly write."""
        state = c.state_dict()
        state["alphas"] = [0.4, 0.3, 0.2, 0.1]
        state["swaps"] = 99
        state["estimator"]["windowed_rate"] = {"times": [7.0]}
        state["estimator"]["arrivals_seen"] = 99
        return state

    @pytest.mark.parametrize("where", ["controller", "estimator"])
    def test_short_mask_is_refused_before_any_write(self, where):
        import json

        c = self.controller()
        before = json.dumps(c.state_dict())
        state = self.altered(c)
        if where == "controller":
            state["up"] = [True, False]
        else:
            state["estimator"]["up"] = [True, False]
        with pytest.raises(ValueError, match="field 'up' has 2 entries, expected 4"):
            c.load_state(state)
        assert json.dumps(c.state_dict()) == before
        c.resolve(10.0)  # still a working controller

    def test_estimator_refuses_a_short_mask_before_any_write(self):
        import json

        est = self.controller().estimator
        before = json.dumps(est.state_dict())
        state = est.state_dict()
        state["arrivals_seen"] = 99
        state["up"] = [True, False, True]
        with pytest.raises(ValueError, match="field 'up' has 3 entries, expected 4"):
            est.load_state(state)
        assert json.dumps(est.state_dict()) == before

    def test_full_mask_round_trips(self):
        c = self.controller()
        state = self.altered(c)
        c.load_state(state)
        assert c.state_dict() == state


# ----------------------------------------------------------------------
# Window geometry: the last window ends at exactly the horizon
# ----------------------------------------------------------------------

# ceil(EDGE_DURATION / EDGE_PERIOD) is 312, but 312 · EDGE_PERIOD falls
# one ulp short of EDGE_DURATION.
EDGE_DURATION = 29876.62632056407
EDGE_PERIOD = EDGE_DURATION / 312
EDGE_JOBS = 2000


def edge_trace():
    """A trace whose last arrival lands exactly on the horizon."""
    rng = np.random.default_rng(0)
    times = np.sort(rng.uniform(0.0, EDGE_DURATION, EDGE_JOBS))
    times[-1] = EDGE_DURATION
    return times, rng.exponential(1.0, EDGE_JOBS)


class TestFinalWindowEdge:
    config = ServiceConfig(
        speeds=SPEEDS, duration=EDGE_DURATION, control_period=EDGE_PERIOD
    )

    def test_geometry_reproduces_the_short_final_window(self):
        assert window_count(EDGE_DURATION, EDGE_PERIOD) == 312
        assert 312 * EDGE_PERIOD < EDGE_DURATION

    def test_last_window_ends_at_duration(self):
        n = window_count(EDGE_DURATION, EDGE_PERIOD)
        bounds = [window_bounds(k, EDGE_DURATION, EDGE_PERIOD) for k in range(n)]
        assert bounds[-1][1] == EDGE_DURATION
        assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))

    def test_service_offers_every_job(self):
        report = SchedulerService(self.config, TraceJobSource(*edge_trace())).run()
        assert report.jobs_offered == EDGE_JOBS
        assert report.windows[-1].end == EDGE_DURATION

    def test_net_offers_every_job(self):
        from repro.net import run_in_process

        net = run_in_process(self.config, TraceJobSource(*edge_trace()))
        assert net.report.jobs_offered == EDGE_JOBS
        assert net.report.windows[-1].end == EDGE_DURATION
