"""Cell-batched simulation: stream pools, kernel v3 batching, CRN pairing.

The hard contract under test is bit-identity: a cell-batched run with
shared arrival pools must produce exactly the results of independent
per-replication runs with the same seeds — across the in-process pool,
the shared-memory pool, the compiled replay kernel, the cell grid
executor, and the sweep front end.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core import (
    CellTask,
    evaluate_cell,
    evaluate_cell_to_precision,
    evaluate_policy,
    get_policy,
    run_cell_grid,
    run_replication_grid,
)
from repro.core.cache import ReplicationCache
from repro.core.evaluate import run_policy_once
from repro.core.executor import ReplicationTask
from repro.metrics.ci import PairedSummary, summarize_paired
from repro.obs import counters
from repro.rng import replication_seeds, substream
from repro.sim import SimulationConfig, ckernel, run_cell
from repro.sim.fastpath import run_static_simulation
from repro.sim.streams import (
    SharedStreamPool,
    StreamPool,
    attach_streams,
    materialize_streams,
    stream_signature,
)


def small_config(discipline: str = "ps", speeds=(2.0, 1.0, 1.0)) -> SimulationConfig:
    return SimulationConfig(
        speeds=speeds,
        utilization=0.7,
        duration=6000.0,
        warmup=1500.0,
        discipline=discipline,
    )


def results_equal(a, b) -> bool:
    """Exact (bitwise) equality of two SimulationResults."""
    return (
        a.metrics.mean_response_time == b.metrics.mean_response_time
        and a.metrics.mean_response_ratio == b.metrics.mean_response_ratio
        and a.metrics.fairness == b.metrics.fairness
        and a.metrics.jobs == b.metrics.jobs
        and a.servers == b.servers
        and a.total_arrivals == b.total_arrivals
    )


class TestStreamPool:
    def test_pooled_arrays_bit_identical_to_private_draws(self):
        config = small_config()
        pool = StreamPool()
        times, sizes = pool.get(config, 1234)
        ref_times, ref_sizes = materialize_streams(config, 1234)
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_array_equal(sizes, ref_sizes)

    def test_entries_memoized_and_read_only(self):
        config = small_config()
        pool = StreamPool()
        with counters.scoped() as delta:
            t1, s1 = pool.get(config, 7)
            t2, s2 = pool.get(config, 7)
        assert t1 is t2 and s1 is s2
        assert delta.get("streams.pool_hit") == 1
        assert delta.get("streams.pool_miss") == 1
        assert not t1.flags.writeable and not s1.flags.writeable
        with pytest.raises(ValueError):
            t1[0] = 0.0

    def test_lru_bound(self):
        config = small_config()
        pool = StreamPool(max_entries=2)
        with counters.scoped() as delta:
            first, _ = pool.get(config, 1)
            pool.get(config, 2)
            pool.get(config, 3)  # evicts seed 1
            pool.get(config, 2)
            again, _ = pool.get(config, 1)  # re-materialized
        assert delta.get("streams.pool_hit") == 1
        assert delta.get("streams.pool_miss") == 4
        assert again is not first
        np.testing.assert_array_equal(again, first)

    def test_signature_ignores_dispatch_and_discipline_fields(self):
        ps = small_config("ps")
        fcfs = small_config("fcfs")
        assert stream_signature(ps) == stream_signature(fcfs)
        pool = StreamPool()
        t1, _ = pool.get(ps, 5)
        t2, _ = pool.get(fcfs, 5)
        assert t1 is t2  # same streams, one materialization

    def test_prime_inserts_external_arrays(self):
        config = small_config()
        times, sizes = materialize_streams(config, 9)
        pool = StreamPool()
        pool.prime(config, 9, times, sizes)
        with counters.scoped() as delta:
            t, s = pool.get(config, 9)
        assert t is times and s is sizes
        assert delta.get("streams.pool_miss", 0) == 0
        assert delta.get("streams.pool_hit") == 1


class TestSharedStreamPool:
    def test_share_attach_roundtrip(self):
        config = small_config()
        ref_times, ref_sizes = materialize_streams(config, 42)
        with SharedStreamPool() as shared:
            handle = shared.share(config, 42)
            view = attach_streams(handle)
            np.testing.assert_array_equal(view.times, ref_times)
            np.testing.assert_array_equal(view.sizes, ref_sizes)
            assert not view.times.flags.writeable
            view.close()

    def test_close_unlinks_every_segment(self):
        config = small_config()
        shared = SharedStreamPool()
        handle = shared.share(config, 42)
        shared.close()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.times_name)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.sizes_name)

    def test_segments_unlinked_even_when_never_attached(self):
        # A worker that crashes before (or after) attaching must not be
        # able to leak /dev/shm space: the parent owns the unlink.
        config = small_config()
        with SharedStreamPool() as shared:
            handle = shared.share(config, 7)
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.times_name)

    def test_context_manager_unlinks_on_error(self):
        config = small_config()
        with pytest.raises(RuntimeError):
            with SharedStreamPool() as shared:
                handle = shared.share(config, 3)
                raise RuntimeError("worker died")
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=handle.sizes_name)


class TestRunCell:
    @pytest.mark.parametrize("discipline", ["ps", "fcfs"])
    def test_members_bit_identical_to_run_static_simulation(self, discipline):
        config = small_config(discipline)
        policies = [get_policy(n) for n in ("ORR", "WRR", "ORAN", "WRAN")]
        seeds = replication_seeds(11, 2)
        batch = run_cell(config, policies, seeds)
        network = config.network()
        for pi, policy in enumerate(policies):
            alphas = policy.fractions(network)
            for r, seed in enumerate(seeds):
                dispatcher = policy.build_dispatcher(
                    config.speeds, substream(seed, "dispatch")
                )
                ref = run_static_simulation(
                    config, dispatcher, alphas, seed=seed
                )
                assert results_equal(batch[(pi, r)], ref), (policy.name, r)

    def test_members_subset_restricts_work(self):
        config = small_config()
        policies = [get_policy("ORR"), get_policy("WRR")]
        seeds = replication_seeds(3, 3)
        batch = run_cell(config, policies, seeds, members=[(0, 1), (1, 2)])
        assert set(batch) == {(0, 1), (1, 2)}

    def test_identical_dispatch_plans_share_one_replay(self):
        # Two cell members with the same dispatch plan (here: the same
        # policy twice, which is what ORR vs WRR degenerates to whenever
        # the optimizer lands on exactly proportional fractions) must
        # share a single replayed result object per replication.
        config = small_config(speeds=(1.0, 1.0, 1.0))
        policies = [get_policy("WRR"), get_policy("WRR")]
        seeds = replication_seeds(5, 2)
        batch = run_cell(config, policies, seeds)
        for r in range(2):
            assert batch[(0, r)] is batch[(1, r)]
        # ... and the shared result is still exactly the private run.
        ref = run_policy_once(config, policies[1], seed=seeds[0])
        assert results_equal(batch[(1, 0)], ref)

    def test_compiled_and_python_replay_agree_exactly(self, monkeypatch):
        config = small_config()
        policies = [get_policy("ORR"), get_policy("ORAN")]
        seeds = replication_seeds(21, 2)
        with_c = run_cell(config, policies, seeds)
        monkeypatch.setattr(ckernel, "_fns", False)  # force Python loop
        without_c = run_cell(config, policies, seeds)
        for key in with_c:
            assert results_equal(with_c[key], without_c[key]), key

    def test_rejects_dynamic_policies_and_bad_members(self):
        config = small_config()
        policies = [get_policy("LEAST_LOAD")]
        with pytest.raises(ValueError, match="feedback"):
            run_cell(config, policies, replication_seeds(0, 1))
        with pytest.raises(IndexError):
            run_cell(config, [get_policy("ORR")], replication_seeds(0, 1),
                     members=[(0, 5)])


class TestPairedStatistics:
    def test_summarize_paired_cancels_shared_noise(self):
        rng = np.random.default_rng(0)
        noise = rng.normal(0.0, 5.0, 40)
        a = 10.0 + noise + rng.normal(0.0, 0.1, 40)
        b = 11.0 + noise + rng.normal(0.0, 0.1, 40)
        paired = summarize_paired(a, b, labels=("A", "B"))
        assert paired.verdict == "a_wins"  # a − b clearly negative
        assert paired.half_width < 0.2  # the ±5 shared noise cancelled
        assert paired.mean_diff == pytest.approx(-1.0, abs=0.2)

    def test_verdict_branches(self):
        assert PairedSummary("a", "b", -2.0, 0.1, 5, 0.5, 0.95).verdict == "a_wins"
        assert PairedSummary("a", "b", 2.0, 0.1, 5, 0.5, 0.95).verdict == "b_wins"
        assert PairedSummary("a", "b", 0.1, 0.1, 5, 0.5, 0.95).verdict == "tie"

    def test_single_pair_and_misaligned_inputs(self):
        single = summarize_paired([1.0], [2.0])
        assert single.n == 1 and single.half_width == 0.0
        with pytest.raises(ValueError, match="align"):
            summarize_paired([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="no replication"):
            summarize_paired([], [])


class TestEvaluateCell:
    def test_matches_evaluate_policy_exactly(self):
        config = small_config()
        cell = evaluate_cell(
            config, ["ORR", "WRAN"], replications=3, base_seed=17
        )
        for name in ("ORR", "WRAN"):
            solo = evaluate_policy(
                config, get_policy(name), replications=3, base_seed=17
            )
            batched = cell[name]
            assert batched.mean_response_ratio.mean == solo.mean_response_ratio.mean
            assert batched.mean_response_time.mean == solo.mean_response_time.mean
            assert batched.fairness.mean == solo.fairness.mean
            np.testing.assert_array_equal(
                batched.dispatch_fractions, solo.dispatch_fractions
            )

    def test_streams_materialized_once_per_replication(self):
        config = small_config()

        def materialized(names, n_jobs):
            with counters.scoped() as delta:
                evaluate_cell(config, names, replications=4, base_seed=1,
                              n_jobs=n_jobs)
            return delta.get("streams.jobs_materialized", 0)

        for n_jobs in (1, 2):
            one = materialized(["ORR"], n_jobs)
            assert one > 0
            assert materialized(["ORR", "WRR", "ORAN"], n_jobs) == one  # not 3x

    def test_paired_accessor_matches_manual_summary(self):
        config = small_config()
        cell = evaluate_cell(config, ["ORR", "WRR"], replications=4, base_seed=2)
        paired = cell.paired("ORR", "WRR", "mean_response_ratio")
        manual = summarize_paired(
            cell.samples["ORR"]["mean_response_ratio"],
            cell.samples["WRR"]["mean_response_ratio"],
            labels=("ORR", "WRR"),
        )
        assert paired.mean_diff == manual.mean_diff
        assert paired.half_width == manual.half_width

    def test_precision_stops_early_when_target_is_loose(self):
        config = small_config()
        cell = evaluate_cell_to_precision(
            config, ["ORR", "WRR"], target_relative_half_width=10.0,
            min_replications=2, max_replications=20, base_seed=4,
        )
        assert cell.replications == 2

    def test_precision_exhausts_budget_when_target_is_tight(self):
        config = small_config()
        cell = evaluate_cell_to_precision(
            config, ["ORR", "WRR"], target_relative_half_width=1e-9,
            min_replications=2, max_replications=4, base_seed=4,
        )
        assert cell.replications == 4

    def test_precision_paired_mode_converges_faster_than_absolute(self):
        # CRN differences are far tighter than absolute intervals, so the
        # paired stopping rule should need no more replications.
        config = small_config()
        paired = evaluate_cell_to_precision(
            config, ["ORR", "WRR"], target_relative_half_width=0.08,
            paired_baseline="WRR", min_replications=2, max_replications=30,
            base_seed=6,
        )
        absolute = evaluate_cell_to_precision(
            config, ["ORR", "WRR"], target_relative_half_width=0.08,
            min_replications=2, max_replications=30, base_seed=6,
        )
        assert paired.replications <= absolute.replications


def make_cells(config, policies, seeds, xs=(1.0, 4.0)):
    return [
        CellTask(
            x=x,
            config=config,
            policy_names=tuple(policies),
            base_names=tuple(policies),
            estimation_errors=(None,) * len(policies),
            seeds=tuple(seeds),
        )
        for x in xs
    ]


class TestCellGrid:
    def test_matches_flat_replication_grid(self):
        config = small_config()
        policies = ["ORR", "WRAN"]
        seeds = replication_seeds(2000, 2)
        cells = make_cells(config, policies, seeds)
        flat_tasks = [
            ReplicationTask(key=(x, name, r), config=config,
                            policy_name=name, estimation_error=None, seed=seed)
            for x in (1.0, 4.0)
            for name in policies
            for r, seed in enumerate(seeds)
        ]
        cell_report = run_cell_grid(cells, n_jobs=1)
        flat_report = run_replication_grid(flat_tasks, n_jobs=1)
        assert set(cell_report.outcomes) == set(flat_report.outcomes)
        for key, outcome in cell_report.outcomes.items():
            for got, want in zip(outcome, flat_report.outcomes[key]):
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want)
                else:
                    assert got == want, key

    def test_parallel_cell_grid_identical_to_serial(self):
        config = small_config()
        policies = ["ORR", "WRR", "ORAN"]
        seeds = replication_seeds(77, 2)
        cells = make_cells(config, policies, seeds, xs=(1.0, 2.0, 3.0))
        serial = run_cell_grid(cells, n_jobs=1)
        parallel = run_cell_grid(cells, n_jobs=2)
        assert set(serial.outcomes) == set(parallel.outcomes)
        for key, outcome in serial.outcomes.items():
            for got, want in zip(parallel.outcomes[key], outcome):
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want)
                else:
                    assert got == want, key

    def test_cell_grid_serves_cache_hits(self, tmp_path):
        config = small_config()
        cells = make_cells(config, ["ORR", "WRR"], replication_seeds(5, 2))
        cache = ReplicationCache(tmp_path)
        first = run_cell_grid(cells, n_jobs=1, cache=cache)
        second = run_cell_grid(cells, n_jobs=1, cache=cache)
        assert first.cache_misses == len(first.outcomes)
        assert second.cache_hits == len(first.outcomes)
        for key in first.outcomes:
            for got, want in zip(second.outcomes[key], first.outcomes[key]):
                if isinstance(want, np.ndarray):
                    np.testing.assert_array_equal(got, want)
                else:
                    assert got == want

    def test_non_fast_members_fall_back_to_engine(self):
        # LEAST_LOAD needs the event engine; the cell grid must still
        # evaluate it (per member) alongside batched static policies.
        config = small_config()
        seeds = replication_seeds(8, 1)
        cells = make_cells(config, ["ORR", "LEAST_LOAD"], seeds, xs=(1.0,))
        report = run_cell_grid(cells, n_jobs=1)
        ref = run_policy_once(config, get_policy("LEAST_LOAD"), seed=seeds[0])
        got = report.outcomes[(1.0, "LEAST_LOAD", 0)]
        assert got[1] == ref.metrics.mean_response_ratio


class TestSweepIntegration:
    def test_cell_batch_sweep_identical_to_flat_sweep(self):
        from repro.experiments.base import Scale, run_policy_sweep

        scale = Scale("test", duration=5000.0, replications=2, base_seed=99)

        def config_for_x(x):
            return SimulationConfig(
                speeds=(x, 1.0, 1.0), utilization=0.6,
                duration=scale.duration, warmup=scale.warmup,
            )

        common = dict(
            experiment_id="t", title="t", x_label="x",
            x_values=[1.0, 3.0], config_for_x=config_for_x,
            policies=["ORR", "WRAN"], scale=scale, cache=None,
        )
        flat = run_policy_sweep(cell_batch=False, **common)
        cell = run_policy_sweep(cell_batch=True, **common)
        default = run_policy_sweep(**common)  # cell-batched by default
        for p in ("ORR", "WRAN"):
            np.testing.assert_array_equal(
                flat.series(p, "mean_response_ratio"),
                cell.series(p, "mean_response_ratio"),
            )
            np.testing.assert_array_equal(
                cell.series(p, "mean_response_ratio"),
                default.series(p, "mean_response_ratio"),
            )
