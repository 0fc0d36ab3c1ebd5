"""Observability layer: spans, counters, conservation, gate, digests.

The differential pass at the heart of this module asserts that the job
ledger (``jobs.*`` / ``runs.*`` counters) is identical across every
execution path — serial flat grid, parallel grid, cell-batched, and the
pure-Python PS kernel — and that each run's ledger obeys conservation:
every dispatched job is completed, lost, awaiting retry, or resident at
the horizon.  Infra counters (kernel engagement, stream-pool reuse)
legitimately differ between paths and are excluded on purpose.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import get_policy
from repro.core.evaluate import run_policy_once
from repro.experiments.base import Scale, run_policy_sweep
from repro.experiments.configs import skewness_config
from repro.faults import FaultConfig
from repro.obs import (
    GateResult,
    JsonlSink,
    ProfileSink,
    add_sink,
    check_gate,
    counters,
    digest_arrays,
    remove_sink,
    span,
    tracing_enabled,
    validate_event,
)
from repro.obs.gate import find_baseline
from repro.obs.spans import _NOOP
from repro.sim import SimulationConfig, ckernel


class ListSink:
    """Collects every dispatched event for in-test inspection."""

    def __init__(self):
        self.events = []

    def handle(self, event):
        self.events.append(event)


@pytest.fixture
def sink():
    s = ListSink()
    add_sink(s)
    yield s
    remove_sink(s)


# ----------------------------------------------------------------------
# Span collector
# ----------------------------------------------------------------------


class TestSpans:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        s1 = span("replay", server=3)
        s2 = span("dispatch")
        assert s1 is _NOOP and s2 is _NOOP  # no allocation when disabled

    def test_span_event_shape_and_nesting(self, sink):
        with span("outer", a=1):
            with span("inner"):
                pass
        inner, outer = sink.events
        assert inner["name"] == "inner" and inner["stack"] == ["outer", "inner"]
        assert outer["name"] == "outer" and outer["stack"] == ["outer"]
        # Parent's self time excludes the child's inclusive time.
        assert outer["self"] <= outer["dur"]
        assert outer["dur"] >= inner["dur"]
        for event in sink.events:
            validate_event(event)

    def test_span_set_attaches_attrs(self, sink):
        with span("replay") as sp:
            sp.set(backend="c", jobs=10)
        (event,) = sink.events
        assert event["attrs"] == {"backend": "c", "jobs": 10}

    def test_counter_events_validate(self, sink):
        counters.inc("cache.hit")
        counters.inc("jobs.lost", 3, server=1)
        kinds = [e["kind"] for e in sink.events]
        assert kinds == ["counter", "counter"]
        for event in sink.events:
            validate_event(event)

    def test_failing_sink_is_dropped_not_fatal(self):
        class Broken:
            def handle(self, event):
                raise OSError("disk full")

        broken = Broken()
        add_sink(broken)
        try:
            with span("replay"):
                pass
            assert not tracing_enabled()  # dropped after first failure
        finally:
            remove_sink(broken)

    def test_validate_event_rejects_bad_events(self):
        good = {"v": 1, "kind": "counter", "name": "x", "value": 1,
                "ts": 0.0, "pid": 1, "attrs": {}}
        validate_event(good)
        with pytest.raises(ValueError):
            validate_event({**good, "kind": "nope"})
        with pytest.raises(ValueError):
            validate_event({**good, "value": True})  # bool is not numeric
        with pytest.raises(ValueError):
            validate_event({**good, "v": 99})
        missing = dict(good)
        del missing["ts"]
        with pytest.raises(ValueError):
            validate_event(missing)
        span_event = {"v": 1, "kind": "span", "name": "a", "ts": 0.0,
                      "pid": 1, "attrs": {}, "dur": 1.0, "self": 0.5,
                      "stack": ["a"]}
        validate_event(span_event)
        with pytest.raises(ValueError):
            validate_event({**span_event, "stack": ["a", "b"]})
        with pytest.raises(ValueError):
            validate_event({**span_event, "stack": ["b", 3, "a"]})
        with pytest.raises(ValueError):
            validate_event({**span_event, "dur": -1.0})
        with pytest.raises(ValueError):
            validate_event(["not", "an", "object"])


class TestEnableTracing:
    def test_enable_disable_roundtrip(self, tmp_path):
        from repro.obs import disable_tracing, enable_tracing
        import os

        path = tmp_path / "env.jsonl"
        enable_tracing(path)
        try:
            assert tracing_enabled()
            assert os.environ["REPRO_TRACE"] == str(path)
            with span("replay", server=0):
                pass
        finally:
            disable_tracing()
        assert not tracing_enabled()
        assert "REPRO_TRACE" not in os.environ
        events = [json.loads(line)
                  for line in path.read_text().splitlines()]
        assert [e["name"] for e in events] == ["replay"]
        disable_tracing()  # idempotent

    def test_spawned_worker_autoinstall_from_env(self, tmp_path,
                                                 monkeypatch):
        """_maybe_enable_from_env is what spawn workers run at import."""
        from repro.obs import disable_tracing
        from repro.obs.spans import _maybe_enable_from_env

        path = tmp_path / "worker.jsonl"
        monkeypatch.setenv("REPRO_TRACE", str(path))
        _maybe_enable_from_env()
        try:
            assert tracing_enabled()
            with span("dispatch"):
                pass
        finally:
            disable_tracing()
        assert path.read_text().strip()


class TestJsonlSink:
    def test_emits_schema_valid_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        s = JsonlSink(path)
        add_sink(s)
        try:
            config = SimulationConfig(
                speeds=(1.0, 2.0), utilization=0.6,
                duration=2000.0, warmup=500.0,
            )
            run_policy_once(config, get_policy("ORR"), seed=7)
        finally:
            remove_sink(s)
        events = [json.loads(line) for line in path.read_text().splitlines()]
        assert events
        for event in events:
            validate_event(event)
        names = {e["name"] for e in events if e["kind"] == "span"}
        assert {"materialize", "dispatch", "replay", "summarize"} <= names


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------


class TestCounters:
    def test_key_roundtrip(self):
        k = counters.key("jobs.completed", server=3, policy="ORR")
        assert k == "jobs.completed{policy=ORR, server=3}"
        name, labels = counters.parse_key(k)
        assert name == "jobs.completed"
        assert labels == {"server": "3", "policy": "ORR"}
        assert counters.parse_key("plain") == ("plain", {})

    def test_scoped_delta(self):
        with counters.scoped() as delta:
            counters.inc("cache.hit")
            counters.inc("cache.hit")
            counters.inc("cache.miss")
        assert delta["cache.hit"] == 2
        assert delta["cache.miss"] == 1

    def test_merge_and_diff(self):
        before = counters.snapshot()
        counters.merge({"worker.thing": 5})
        counters.merge({})  # empty delta is a no-op
        delta = counters.diff_since(before)
        assert delta["worker.thing"] == 5

    def test_reset_zeroes_everything(self):
        counters.inc("to.be.cleared")
        snapshot_before_reset = counters.snapshot()
        try:
            counters.reset()
            assert counters.snapshot() == {}
        finally:
            counters.merge(snapshot_before_reset)  # restore for other tests


# ----------------------------------------------------------------------
# Conservation invariants (hypothesis)
# ----------------------------------------------------------------------

speeds_strategy = st.lists(
    st.floats(min_value=1.0, max_value=8.0), min_size=1, max_size=4
)


class TestConservation:
    @given(speeds=speeds_strategy,
           rho=st.floats(min_value=0.2, max_value=0.8),
           seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_fault_free_ledger_closes_exactly(self, speeds, rho, seed):
        """drain=True, no faults: every dispatched job completes, per server."""
        from repro.distributions import Exponential

        # Unit-mean sizes keep the arrival rate at rho * total_speed, so
        # even the smallest drawn system sees plenty of post-warm-up jobs.
        config = SimulationConfig(
            speeds=tuple(speeds), utilization=rho,
            duration=1500.0, warmup=300.0,
            size_distribution=Exponential(1.0),
        )
        result = run_policy_once(config, get_policy("WRR"), seed=seed)
        ledger = result.counters()
        dispatched = [s.jobs_received for s in result.servers]
        completed = [s.jobs_completed for s in result.servers]
        assert dispatched == completed  # per-server conservation
        assert sum(dispatched) == result.total_arrivals  # aggregate
        for i in range(len(speeds)):
            assert ledger[f"jobs.dispatched{{server={i}}}"] == dispatched[i]
            assert ledger[f"jobs.completed{{server={i}}}"] == completed[i]
        assert ledger["runs.completed"] == 1

    @given(seed=st.integers(0, 2**16),
           mtbf=st.floats(min_value=150.0, max_value=600.0))
    @settings(max_examples=10, deadline=None)
    def test_faulty_ledger_closes_with_losses_and_retries(self, seed, mtbf):
        """With failures: arrivals == completed + lost + pending-retry.

        drain=True empties every server and fires every queued retry, so
        nothing is resident at the end and the ledger closes exactly.
        """
        from repro.distributions import Exponential

        config = SimulationConfig(
            speeds=(1.0, 2.0, 4.0), utilization=0.6,
            duration=1500.0, warmup=300.0,
            size_distribution=Exponential(1.0),
            faults=FaultConfig(mtbf=mtbf, mttr=80.0),
        )
        result = run_policy_once(config, get_policy("WRR"), seed=seed)
        assert result.faults is not None
        completed = sum(s.jobs_completed for s in result.servers)
        closed = (completed + result.faults.jobs_lost_total
                  + result.faults.jobs_pending_retry)
        assert closed == result.total_arrivals

    def test_no_drain_leaves_nonnegative_residue(self):
        config = SimulationConfig(
            speeds=(1.0, 3.0), utilization=0.7,
            duration=1500.0, warmup=300.0, drain=False,
            faults=FaultConfig(mtbf=250.0, mttr=60.0),
        )
        result = run_policy_once(config, get_policy("WRR"), seed=11)
        completed = sum(s.jobs_completed for s in result.servers)
        accounted = (completed + result.faults.jobs_lost_total
                     + result.faults.jobs_pending_retry)
        # Whatever is not accounted for was resident at the horizon.
        assert 0 <= result.total_arrivals - accounted


# ----------------------------------------------------------------------
# Differential: the ledger is identical across all execution paths
# ----------------------------------------------------------------------


def _ledger(counter_delta: dict) -> dict:
    """Job-conservation keys only: infra counters (kernel engagement,
    stream-pool reuse, plan dedup) legitimately differ across paths."""
    return {k: v for k, v in counter_delta.items()
            if k.startswith(("jobs.", "runs."))}


def _mini_sweep(**kwargs):
    scale = Scale("obs-test", duration=4.0e3, replications=2)
    return run_policy_sweep(
        "obs-test", "obs", "fast speed", [2.0, 6.0],
        lambda x: skewness_config(x, 0.7, n_fast=1, n_slow=3),
        ["WRR", "ORR"], scale, **kwargs,
    )


class TestCounterIdentityAcrossPaths:
    def test_serial_grid_cell_and_python_kernel_agree(self, monkeypatch):
        serial = _mini_sweep(cell_batch=False)
        reference = _ledger(serial.counters)
        assert reference["runs.completed"] == 8  # 2 points x 2 policies x 2
        assert sum(v for k, v in reference.items()
                   if k.startswith("jobs.dispatched")) > 0

        grid = _mini_sweep(cell_batch=False, n_jobs=2)
        assert _ledger(grid.counters) == reference

        cell = _mini_sweep(cell_batch=True)
        assert _ledger(cell.counters) == reference

        monkeypatch.setattr(ckernel, "_fns", False)  # force the Python loop
        python_path = _mini_sweep(cell_batch=False)
        assert _ledger(python_path.counters) == reference

    def test_sweep_counters_match_summed_run_ledgers(self):
        """SweepResult.counters equals the sum of each member's ledger."""
        sweep = _mini_sweep(cell_batch=False)
        expected: dict = {}
        scale = Scale("obs-test", duration=4.0e3, replications=2)
        from repro.rng import replication_seeds

        for x in [2.0, 6.0]:
            config = SimulationConfig(
                speeds=skewness_config(x, 0.7, n_fast=1, n_slow=3).speeds,
                utilization=0.7, duration=scale.duration,
                warmup=scale.warmup,
            )
            for name in ["WRR", "ORR"]:
                for seed in replication_seeds(scale.base_seed,
                                              scale.replications):
                    run = run_policy_once(config, get_policy(name), seed=seed)
                    for k, v in run.counters().items():
                        expected[k] = expected.get(k, 0) + v
        assert _ledger(sweep.counters) == _ledger(expected)


# ----------------------------------------------------------------------
# Bit-identity: tracing must not perturb results
# ----------------------------------------------------------------------


class TestTraceBitIdentity:
    def test_results_identical_with_tracing_on(self, tmp_path):
        config = SimulationConfig(
            speeds=(1.0, 4.0), utilization=0.7,
            duration=3000.0, warmup=750.0,
        )
        plain = run_policy_once(config, get_policy("ORR"), seed=5)
        s = JsonlSink(tmp_path / "t.jsonl")
        add_sink(s)
        try:
            traced = run_policy_once(config, get_policy("ORR"), seed=5)
        finally:
            remove_sink(s)
        assert plain.metrics.mean_response_time == traced.metrics.mean_response_time
        assert plain.metrics.mean_response_ratio == traced.metrics.mean_response_ratio
        assert np.array_equal(plain.dispatch_fractions,
                              traced.dispatch_fractions)

    def test_cli_stdout_identical_with_and_without_trace(self, tmp_path,
                                                        capsys):
        from repro.cli import main

        argv = ["simulate", "--speeds", "1,2", "--utilization", "0.6",
                "--duration", "2000", "--replications", "2"]
        assert main(list(argv)) == 0
        plain_out = capsys.readouterr().out
        assert main(argv + ["--trace", str(tmp_path / "o.jsonl")]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain_out  # stdout is byte-identical
        assert "trace written" in captured.err
        assert (tmp_path / "o.jsonl").exists()


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------


class TestProfile:
    def test_phase_table_and_folded_output(self):
        prof = ProfileSink()
        add_sink(prof)
        try:
            config = SimulationConfig(
                speeds=(1.0, 2.0), utilization=0.6,
                duration=2000.0, warmup=500.0,
            )
            run_policy_once(config, get_policy("WRR"), seed=3)
        finally:
            remove_sink(prof)
        table = prof.table()
        for phase in ("materialize", "dispatch", "replay", "summarize"):
            assert phase in table
        folded = prof.folded()
        for line in folded.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0  # microsecond weights


# ----------------------------------------------------------------------
# Perf gate
# ----------------------------------------------------------------------


def _record(scale="smoke", fcfs=10.0, ps=10.0, identical=True, ts="t1"):
    return {
        "timestamp": ts,
        "scale": scale,
        "kernels": {"fcfs_speedup": fcfs, "ps_speedup": ps},
        "sweep": {"grid_identical": identical, "cache_speedup": 4.0},
        "cell": {"cell_identical": identical, "cell_speedup": 1.2},
        "replication": {
            "ps": {"speedup": 5.0, "agree": identical},
            "fcfs": {"speedup": 30.0, "agree": identical},
        },
        "telemetry": {"trace_identical": identical},
    }


class TestGate:
    def test_passes_against_equal_baseline(self):
        base = _record(ts="t0")
        result = check_gate(_record(ts="t1"), [base])
        assert isinstance(result, GateResult)
        assert result.passed
        assert result.baseline_timestamp == "t0"
        assert "PASS" in result.summary()

    def test_fails_on_injected_25_percent_slowdown(self):
        base = _record(fcfs=10.0, ts="t0")
        slowed = _record(fcfs=7.5, ts="t1")  # 25% > the 20% default
        result = check_gate(slowed, [base])
        assert not result.passed
        assert any("fcfs_speedup" in f for f in result.failures)
        assert "FAIL" in result.summary()

    def test_threshold_is_respected(self):
        base = _record(fcfs=10.0, ts="t0")
        slowed = _record(fcfs=7.5, ts="t1")
        assert check_gate(slowed, [base], threshold=0.30).passed
        assert not check_gate(slowed, [base], threshold=0.10).passed

    def test_identity_divergence_fails_at_any_threshold(self):
        base = _record(ts="t0")
        diverged = _record(identical=False, ts="t1")
        result = check_gate(diverged, [base], threshold=1000.0)
        assert not result.passed
        assert any("bit-identity" in f for f in result.failures)

    def test_no_baseline_passes_vacuously(self):
        result = check_gate(_record(scale="paper"), [_record(scale="smoke")])
        assert result.passed
        assert result.baseline_timestamp is None
        assert any("no baseline" in n for n in result.notes)

    def test_baseline_is_most_recent_same_scale(self):
        history = [_record(scale="smoke", ts="t0"),
                   _record(scale="quick", ts="t1"),
                   _record(scale="smoke", ts="t2")]
        assert find_baseline(history, _record(scale="smoke"))["timestamp"] == "t2"

    def test_speedup_improvements_never_fail(self):
        base = _record(fcfs=10.0, ts="t0")
        faster = _record(fcfs=100.0, ts="t1")
        assert check_gate(faster, [base]).passed

    def test_net_dispatch_ceiling_fails_when_breached(self):
        from repro.obs.gate import NET_DISPATCH_CEILING_NS

        record = _record(ts="t1")
        record["net"] = {
            "report_identical": True,
            "overload_report_identical": True,
            "dispatch_ns_per_job": NET_DISPATCH_CEILING_NS * 2,
        }
        result = check_gate(record, [])
        assert not result.passed
        assert any("dispatch" in f and "ceiling" in f for f in result.failures)

    def test_net_dispatch_under_ceiling_passes_at_every_scale(self):
        # Scale None in the ceiling table means "every scale" — unlike
        # floors, which pin one scale each.
        for scale in ("smoke", "quick", "paper"):
            record = _record(scale=scale, ts="t1")
            record["cell"]["cell_speedup"] = 2.5  # stay above the quick floor
            record["net"] = {"dispatch_ns_per_job": 1000.0}
            assert check_gate(record, []).passed

    @pytest.mark.parametrize("ratio, passed", [(0.8, True), (1.5, False)])
    def test_flat_grid_pool_ceiling(self, ratio, passed):
        """One future per sub-millisecond flat task read 1.14-1.86x the
        serial wall; chunked units stay under the 1.1 ceiling."""
        record = _record(ts="t1")
        record["executor"] = {"flat_pool_vs_serial": ratio}
        result = check_gate(record, [])
        assert result.passed is passed
        if not passed:
            assert any("flat_pool_vs_serial" in f and "1.5 above the 1.1"
                       in f for f in result.failures)

    def test_net_identity_flags_are_enforced(self):
        record = _record(ts="t1")
        record["net"] = {
            "report_identical": True,
            "overload_report_identical": False,
            "dispatch_ns_per_job": 1000.0,
        }
        result = check_gate(record, [])
        assert not result.passed
        assert any("overload_report_identical" in f for f in result.failures)


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------


class TestDigests:
    def test_digest_is_deterministic_and_order_sensitive(self):
        a = np.arange(10, dtype=float)
        b = np.ones(3)
        d1 = digest_arrays([("a", a), ("b", b)])
        d2 = digest_arrays([("a", a.copy()), ("b", b.copy())])
        assert d1 == d2
        assert digest_arrays([("b", b), ("a", a)]) != d1
        assert digest_arrays([("a", a + 1e-9), ("b", b)]) != d1  # one ulp off

    def test_digest_normalizes_dtype_not_values(self):
        ints = np.arange(5)
        floats = np.arange(5, dtype=float)
        assert digest_arrays([("x", ints)]) == digest_arrays([("x", floats)])
