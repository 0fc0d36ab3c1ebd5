"""The eight bench sections and the helpers they share.

Each section returns its part of the trajectory record, or raises
:class:`BenchFailure` naming the agreement check that failed.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import tempfile
import time

import numpy as np

from ..core import evaluate_cell, get_policy
from ..core import executor as executor_mod
from ..core.cache import ReplicationCache
from ..core.evaluate import run_policy_once
from ..core.executor import (
    ReplicationTask,
    run_replication_grid,
    shutdown_shared_executor,
)
from ..dispatch.round_robin import dispatch_sequence_slice
from ..distributions.fitting import distribution_from_mean_cv
from ..experiments.base import run_policy_sweep
from ..experiments.configs import skewness_config
from ..experiments.figure3 import run_figure3
from ..metrics.ci import _t_quantile
from ..net.runtime import run_in_process, run_sockets
from ..obs import JsonlSink, add_sink, remove_sink, validate_event
from ..obs import spans as spans_mod
from ..obs.digest import reports_identical, results_digest
from ..obs.gate import NET_DISPATCH_CEILING_NS
from ..obs.spans import span as obs_span
from ..rng import replication_seeds
from ..service.loop import SchedulerService, ServiceConfig
from ..service.sources import SyntheticJobSource, Workload
from ..sim import SimulationConfig, ckernel
from ..sim.fastpath import (
    _fcfs_replay_loop,
    _ps_replay_loop,
    fcfs_replay,
    group_by_server,
    ps_replay,
)

class BenchFailure(Exception):
    """An agreement check of a bench section failed.

    The message names the check.  ``repro bench`` prints it as
    ``error: <message>`` on stderr, exits 1 and appends nothing to the
    trajectory.
    """


def require(ok: bool, message: str) -> None:
    """Raise :class:`BenchFailure` with *message* unless *ok*."""
    if not ok:
        raise BenchFailure(message)


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds of that call)``."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def best_pair(fn_a, fn_b, repeats: int = 7):
    """Time *fn_a* and *fn_b* interleaved (a, b, a, b, ...) and keep each
    leg's fastest wall: ``(out_a, best_a, out_b, best_b)``.

    The legs are sub-second, so ratios of minima damp scheduler noise,
    and interleaving keeps slow system drift from biasing one leg.
    """
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(repeats):
        out_a, t = timed(fn_a)
        best_a = min(best_a, t)
        out_b, t = timed(fn_b)
        best_b = min(best_b, t)
    return out_a, best_a, out_b, best_b


def ratio(num: float, den: float) -> float:
    """``num / den``, or infinity when *den* rounds to no time at all."""
    return num / den if den > 0 else float("inf")


def skew_config(skew: float, discipline: str, duration: float, warmup: float):
    """Figure 3's 2-fast + 16-slow system at ρ = 0.70 with the fast
    speed *skew*, on the bench's horizon and CPU discipline."""
    return dataclasses.replace(
        skewness_config(skew, 0.70),
        duration=duration, warmup=warmup, discipline=discipline,
    )


def service_config(speeds, utilization: float, jobs: int) -> ServiceConfig:
    """A service horizon that offers ~*jobs* arrivals over 50 windows.

    Mean-1 job sizes make the arrival rate ``utilization * sum(speeds)``.
    """
    duration = jobs / (utilization * sum(speeds))
    return ServiceConfig(
        speeds=speeds, duration=duration, control_period=duration / 50.0,
    )


def synthetic_source(speeds, utilization: float) -> SyntheticJobSource:
    """The bench's serving stream: seed 7, mean-1 exponential sizes."""
    workload = Workload(
        total_speed=sum(speeds), utilization=utilization,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
    )
    return SyntheticJobSource(workload, 7)


#: The Figure 3 subset the sweep and cell sections run.
SUBSET_SPEEDS = (1.0, 10.0)
SUBSET_POLICIES = ("WRAN", "WRR", "ORAN", "ORR")


def _same_series(a, b) -> bool:
    """Whether two sweeps' mean-response-ratio series are bit-identical."""
    return all(
        np.array_equal(
            a.series(p, "mean_response_ratio"), b.series(p, "mean_response_ratio")
        )
        for p in SUBSET_POLICIES
    )


def _figure3_subset(scale, **kwargs):
    return run_figure3(
        scale, fast_speeds=SUBSET_SPEEDS, policies=SUBSET_POLICIES, **kwargs
    )


def kernels(backend: str) -> dict:
    """Vectorized FCFS/PS replay vs the per-job reference loops on one
    synthetic substream, and the compiled FCFS cell replay vs the numpy
    Lindley recursion (bit for bit, when the C kernel is built)."""
    rng = np.random.default_rng(12345)
    n = 200_000
    times = np.cumsum(rng.exponential(1.0, n))
    work = rng.lognormal(mean=0.0, sigma=1.5, size=n)
    ref, fcfs_loop_s = timed(_fcfs_replay_loop, times, work, 2.0)
    fast, fcfs_fast_s = timed(fcfs_replay, times, work, 2.0)
    require(np.allclose(ref, fast, rtol=1e-9),
            "FCFS kernel disagrees with reference loop")
    m = 30_000
    ref, ps_loop_s = timed(_ps_replay_loop, times[:m], work[:m], 2.0)
    fast, ps_fast_s = timed(ps_replay, times[:m], work[:m], 2.0)
    require(np.allclose(np.sort(ref), np.sort(fast), rtol=1e-9),
            "PS kernel disagrees with reference loop")

    # Compiled FCFS replay must be BIT-identical to the numpy Lindley
    # recursion, not merely close: one multi-server plan through the
    # fused cell kernel against the per-server numpy cores.
    fcfs_bit_identical = None
    fused = ckernel.entry("cell")
    if fused is not None:
        kn = 50_000
        kspeeds = np.array([1.0, 1.0, 2.0, 4.0, 10.0])
        ktimes = np.ascontiguousarray(times[:kn])
        kwork = np.ascontiguousarray(work[:kn])
        kplan = rng.integers(0, kspeeds.size, kn)
        comp_c, _, _, _, ok = ckernel.replay_cell_c(
            fused, ktimes, kwork, kspeeds, [kplan], False
        )
        korder, koffs = group_by_server(kplan, kspeeds.size)
        comp_py = np.empty(kn)
        for s in range(kspeeds.size):
            idx = korder[koffs[s]:koffs[s + 1]]
            comp_py[idx] = fcfs_replay(ktimes[idx], kwork[idx],
                                       float(kspeeds[s]))
        fcfs_bit_identical = bool(ok and np.array_equal(comp_c[0], comp_py))
        require(fcfs_bit_identical, "compiled FCFS replay is not "
                "bit-identical to the numpy kernel")

    return {
        "fcfs_jobs": n,
        "fcfs_loop_s": fcfs_loop_s,
        "fcfs_fast_s": fcfs_fast_s,
        "fcfs_speedup": fcfs_loop_s / fcfs_fast_s,
        "ps_jobs": m,
        "ps_loop_s": ps_loop_s,
        "ps_fast_s": ps_fast_s,
        "ps_speedup": ps_loop_s / ps_fast_s,
        "ps_backend": backend,
        "fcfs_backend": backend,
        "fcfs_bit_identical": fcfs_bit_identical,
    }


def replication(configs: dict, scale) -> dict:
    """One ORR replication through the fast path vs the event engine,
    per discipline in *configs*."""
    policy = get_policy("ORR")
    out = {}
    for discipline, config in configs.items():
        eng, engine_s = timed(
            run_policy_once, config, policy, seed=scale.base_seed,
            force_engine=True,
        )
        fastr, fast_s = timed(
            run_policy_once, config, policy, seed=scale.base_seed
        )
        agree = bool(np.isclose(
            eng.metrics.mean_response_ratio,
            fastr.metrics.mean_response_ratio,
            rtol=1e-9,
        ))
        require(agree, f"{discipline} fast path disagrees with the event engine")
        out[discipline] = {
            "engine_s": engine_s,
            "fast_s": fast_s,
            "speedup": engine_s / fast_s,
            "agree": agree,
        }
    return out


def sweep(scale, n_jobs: int, cache_dir: str | None):
    """The Figure 3 subset serially and through the grid executor (series
    identical), then cold/warm through the replication cache.

    Returns the record and the serial sweep, the cell section's oracle.
    """
    serial, serial_s = timed(_figure3_subset, scale)
    grid, grid_s = timed(_figure3_subset, scale, n_jobs=n_jobs)
    require(_same_series(serial, grid),
            "grid sweep diverged from the serial sweep")

    with (
        contextlib.nullcontext(cache_dir) if cache_dir
        else tempfile.TemporaryDirectory(prefix="repro-bench-")
    ) as path:
        cold, cold_s = timed(_figure3_subset, scale, cache=ReplicationCache(path))
        warm, warm_s = timed(_figure3_subset, scale, cache=ReplicationCache(path))
    return {
        "points": len(SUBSET_SPEEDS),
        "policies": len(SUBSET_POLICIES),
        "replications": scale.replications,
        "serial_s": serial_s,
        "grid_s": grid_s,
        "grid_identical": True,
        "cache_cold_s": cold_s,
        "cache_cold_hits": cold.cache_hits,
        "cache_warm_s": warm_s,
        "cache_warm_hits": warm.cache_hits,
        "cache_speedup": ratio(cold_s, warm_s),
    }, serial


def _fcfs_skew_config(x):
    return dataclasses.replace(skewness_config(x, 0.70), discipline="fcfs")


def _welch_half_width(a, b) -> float:
    """Unpaired (Welch) 95% half-width of ``mean(a) - mean(b)``."""
    reps = a.size
    va, vb = a.var(ddof=1), b.var(ddof=1)
    se2 = va / reps + vb / reps
    if not se2 > 0:
        return 0.0
    df = se2**2 / (
        (va / reps) ** 2 / (reps - 1) + (vb / reps) ** 2 / (reps - 1)
    )
    return float(_t_quantile(0.95, df) * np.sqrt(se2))


def cell(scale, serial) -> dict:
    """Flat vs cell-batched sweeps, then paired vs unpaired intervals.

    Both sweeps run warm (the sweep section paid the one-time memo and
    kernel warm-up), so flat vs cell compares steady-state costs, and
    the 2.0x floor gates a steady-state property.  The headline
    ``cell_speedup`` is FCFS, the fully compiled kernel-v4 pipeline;
    ``cell_speedup_ps`` tracks the PS composition, whose per-plan
    busy-period replay keeps a structurally lower flat:cell ratio
    (DESIGN.md §7.1).
    """
    flat, flat_ps_s, cellr, cell_ps_s = best_pair(
        lambda: _figure3_subset(scale, cell_batch=False),
        lambda: _figure3_subset(scale, cell_batch=True),
    )
    cell_identical_ps = _same_series(cellr, flat) and _same_series(cellr, serial)

    def fcfs_sweep(cell_batch):
        return run_policy_sweep(
            "bench-cell-fcfs", "bench cell (fcfs)", "x", list(SUBSET_SPEEDS),
            _fcfs_skew_config, SUBSET_POLICIES, scale, cell_batch=cell_batch,
        )

    fcfs_sweep(True)  # warm the fcfs leg (kernel + sequence memos)
    flat_f, flat_s, cell_f, cell_s = best_pair(
        lambda: fcfs_sweep(False), lambda: fcfs_sweep(True)
    )
    cell_identical = cell_identical_ps and _same_series(cell_f, flat_f)
    require(cell_identical, "cell-batched sweep diverged from the flat grid")

    # The variance reduction tracks how similarly the two policies
    # route jobs: at mild skew their dispatch plans — and hence the
    # per-server substreams — nearly coincide and the replications
    # correlate strongly, while at extreme skew the routing diverges
    # and pairing buys less.  Replications are equal for both
    # estimators by construction.
    paired_points = []
    for skew in (2.0, 10.0):
        cmp_cell = evaluate_cell(
            skew_config(skew, "ps", scale.duration, scale.warmup),
            ["ORR", "WRR"], replications=max(scale.replications, 10),
            base_seed=scale.base_seed,
        )
        orr_name, wrr_name = cmp_cell.policy_names
        paired = cmp_cell.paired(orr_name, wrr_name, "mean_response_ratio")
        a = np.asarray(cmp_cell.samples[orr_name]["mean_response_ratio"])
        b = np.asarray(cmp_cell.samples[wrr_name]["mean_response_ratio"])
        unpaired_hw = _welch_half_width(a, b)
        paired_points.append({
            "skew": skew,
            "policies": [orr_name, wrr_name],
            "replications": a.size,
            "paired_half_width": paired.half_width,
            "unpaired_half_width": unpaired_hw,
            "paired_vs_unpaired": (
                paired.half_width / unpaired_hw if unpaired_hw > 0 else 0.0
            ),
            "verdict": paired.verdict,
        })
    return {
        "flat_s": flat_s,
        "cell_s": cell_s,
        "cell_speedup": ratio(flat_s, cell_s),
        "flat_ps_s": flat_ps_s,
        "cell_ps_s": cell_ps_s,
        "cell_speedup_ps": ratio(flat_ps_s, cell_ps_s),
        "cell_identical": cell_identical,
        "paired": paired_points,
    }


def _same_outcomes(a, b) -> bool:
    """Whether two grid reports hold the same outcomes, bit for bit."""
    return set(a.outcomes) == set(b.outcomes) and all(
        all(
            np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
            for x, y in zip(a.outcomes[key], b.outcomes[key])
        )
        for key in a.outcomes
    )


def executor(scale, n_jobs: int) -> dict:
    """A tiny grid through real workers vs the auto-serial small-task
    path, and a flat grid of sub-millisecond tasks through the pool vs
    serially; each pair of outcomes must be identical."""
    config = skew_config(10.0, "ps", 2.0e4, 5.0e3)
    tasks = [
        ReplicationTask(key=("bench", "ORR", r), config=config,
                        policy_name="ORR", estimation_error=None, seed=s)
        for r, s in enumerate(
            replication_seeds(scale.base_seed, executor_mod._AUTO_SERIAL_TASKS)
        )
    ]
    workers = max(2, n_jobs)
    shutdown_shared_executor()
    saved_threshold = executor_mod._AUTO_SERIAL_TASKS
    try:
        executor_mod._AUTO_SERIAL_TASKS = 0
        pooled, pool_s = timed(run_replication_grid, list(tasks), n_jobs=workers)
    finally:
        executor_mod._AUTO_SERIAL_TASKS = saved_threshold
    shutdown_shared_executor()
    auto, auto_s = timed(run_replication_grid, list(tasks), n_jobs=workers)
    require(_same_outcomes(pooled, auto),
            "auto-serial grid diverged from the worker pool")

    # 2 x 128 tasks of 5e3 simulated seconds, well under a millisecond
    # each, on two workers: the per-unit round trip through the pool,
    # not the simulation, decides the pool's wall.
    flat_config = SimulationConfig(speeds=(1.0, 1.0, 10.0), utilization=0.6,
                                   duration=5.0e3)
    flat_tasks = [
        ReplicationTask(key=("flat", p, r), config=flat_config, policy_name=p,
                        estimation_error=None, seed=s)
        for p in ("ORR", "WRR")
        for r, s in enumerate(replication_seeds(scale.base_seed, 128))
    ]
    # One untimed pass spins the pool up and warms the workers' memos.
    run_replication_grid(flat_tasks, n_jobs=2)
    flat_pool, flat_pool_s, flat_serial, flat_serial_s = best_pair(
        lambda: run_replication_grid(flat_tasks, n_jobs=2),
        lambda: run_replication_grid(flat_tasks, n_jobs=1),
    )
    shutdown_shared_executor()
    require(_same_outcomes(flat_pool, flat_serial),
            "flat grid through the pool diverged from the serial grid")
    return {
        "small_tasks": len(tasks),
        "n_jobs": workers,
        "pool_s": pool_s,
        "auto_serial_s": auto_s,
        "auto_serial_speedup": ratio(pool_s, auto_s),
        "flat_tasks": len(flat_tasks),
        "flat_pool_s": flat_pool_s,
        "flat_serial_s": flat_serial_s,
        "flat_pool_vs_serial": ratio(flat_pool_s, flat_serial_s),
    }


def _noop_spans(n: int) -> None:
    for _ in range(n):
        with obs_span("bench.noop", probe=1):
            pass


def telemetry(config, scale) -> dict:
    """The disabled-telemetry overhead guard (<2% of one replication of
    *config*, priced from the no-op span path) and a trace-on vs
    trace-off bit-identity check over schema-valid JSONL events."""
    policy = get_policy("ORR")
    untraced, untraced_s = timed(
        run_policy_once, config, policy, seed=scale.base_seed
    )
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
        trace_path = os.path.join(tmp, "bench_trace.jsonl")
        sink = JsonlSink(trace_path)
        add_sink(sink)
        try:
            traced, traced_s = timed(
                run_policy_once, config, policy, seed=scale.base_seed
            )
        finally:
            remove_sink(sink)
        with open(trace_path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh if line.strip()]
    try:
        for event in events:
            validate_event(event)
    except ValueError as exc:
        raise BenchFailure(
            f"trace emitted a schema-invalid event: {exc}"
        ) from exc
    trace_identical = results_digest(traced) == results_digest(untraced)

    # Price the no-op span path with no sinks registered (sinks are
    # parked, not closed, so an outer --trace on this very command
    # survives), then scale by the events one traced replication emits.
    saved_sinks = spans_mod._sinks[:]
    spans_mod._sinks[:] = []
    try:
        noop_n = 200_000
        _, noop_s = timed(_noop_spans, noop_n)
    finally:
        spans_mod._sinks[:] = saved_sinks
    per_call = noop_s / noop_n
    overhead = len(events) * per_call / untraced_s if untraced_s > 0 else 0.0
    require(trace_identical, "results diverged with tracing enabled")
    require(overhead < 0.02, f"disabled-telemetry overhead {overhead:.2%} "
            "exceeds the 2% budget")
    return {
        "noop_span_ns": per_call * 1e9,
        "events_per_replication": len(events),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_fraction": overhead,
        "overhead_ok": True,
        "trace_identical": True,
    }


def _pull_slices(alphas, jobs: int, window_jobs: int) -> None:
    for lo in range(0, jobs, window_jobs):
        dispatch_sequence_slice(alphas, lo, min(lo + window_jobs, jobs))


def serve(scale, backend: str) -> dict:
    """One fault-free service run through the vectorized window loop vs
    the per-job reference loop on the same stream (reports identical),
    plus the dispatch plane alone: memoized Algorithm 2 slices pulled at
    window granularity, the way the service loop consumes them."""
    speeds, util = (1.0, 2.0, 3.0, 4.0), 0.85
    jobs = {"smoke": 60_000, "quick": 240_000, "paper": 1_000_000}[scale.name]
    config = service_config(speeds, util, jobs)

    def run(reference):
        return SchedulerService(
            config, synthetic_source(speeds, util), reference=reference
        ).run()

    ref_report, ref_s, fast_report, fast_s = best_pair(
        lambda: run(True), lambda: run(False), repeats=3
    )
    require(reports_identical(ref_report, fast_report),
            "vectorized serve loop diverged from the per-job reference report")
    dispatched = int(fast_report.jobs_dispatched)

    alphas = np.asarray(speeds) / sum(speeds)
    dispatch_sequence_slice(alphas, 0, jobs)  # warm memo
    _, dispatch_s = timed(_pull_slices, alphas, jobs, max(1, jobs // 50))
    return {
        "servers": len(speeds),
        "utilization": util,
        "jobs": dispatched,
        "windows": len(fast_report.windows),
        "reference_s": ref_s,
        "fast_s": fast_s,
        "serve_speedup": ratio(ref_s, fast_s),
        "jobs_per_sec": ratio(dispatched, fast_s),
        "reference_jobs_per_sec": ratio(dispatched, ref_s),
        "dispatch_ns_per_job": dispatch_s / jobs * 1e9,
        "report_identical": True,
        "backend": backend,
    }


def net(scale, backend: str) -> dict:
    """The client / orchestrator / server split: four drills and the
    dispatch-latency ceiling (see the package docstring)."""
    speeds, util = (1.0, 2.0, 3.0, 4.0), 0.85
    jobs = {"smoke": 20_000, "quick": 100_000, "paper": 400_000}[scale.name]
    config = service_config(speeds, util, jobs)

    def source():
        return synthetic_source(speeds, util)

    svc_report = SchedulerService(config, source()).run()
    inproc = run_in_process(config, source())
    require(reports_identical(svc_report, inproc.report),
            "networked in-process run diverged from the SchedulerService report")

    # The client runs 8 windows ahead of a 2-window orchestrator buffer,
    # so this drill's RESOLVE round trips are the *loaded* RTT.
    overload = asyncio.run(run_sockets(
        config, source(), max_inflight=8, queue_limit=2,
    ))
    require(reports_identical(svc_report, overload.report),
            "socket-mode overload run diverged from the SchedulerService report")
    require(overload.metrics.peak_submit_queue <= 2,
            f"orchestrator buffered {overload.metrics.peak_submit_queue} "
            "windows past the 2-window bound")

    # Shard 0 owns 3 units of speed, shard 1 owns 9, at a load the full
    # bank carries easily: the even split halves the stream and
    # overloads the slow shard into shedding.
    bal_speeds, bal_util = (1.0, 4.0, 2.0, 5.0), 0.6
    bal_config = service_config(bal_speeds, bal_util, jobs)
    bal_runs = {
        split: run_in_process(bal_config, synthetic_source(bal_speeds, bal_util),
                              n_shards=2, split=split)
        for split in ("even", "capacity")
    }
    bal_live = asyncio.run(run_sockets(
        bal_config, synthetic_source(bal_speeds, bal_util), n_shards=2,
        split="capacity"))
    even_split_shed = bal_runs["even"].metrics.jobs_shed
    capacity_shed = bal_runs["capacity"].metrics.jobs_shed
    require(capacity_shed == 0 and even_split_shed > 0,
            f"capacity-aware split shed {capacity_shed} jobs (even split: "
            f"{even_split_shed}) — rebalancing is broken")
    require(all(reports_identical(a, b) for a, b in
                zip(bal_runs["capacity"].reports, bal_live.reports)),
            "capacity-split socket run diverged from the in-process run")

    # Kill the fastest server mid-run and restart it five windows later.
    kill, rejoin = {3: 9}, {3: 14}
    rj_sim = run_in_process(config, source(), kill=kill, rejoin=rejoin)
    rj_live = asyncio.run(run_sockets(config, source(), kill=kill, rejoin=rejoin))
    require(reports_identical(rj_sim.report, rj_live.report),
            "socket-mode kill+rejoin run diverged from the in-process run")

    dispatch_ns = inproc.metrics.dispatch_ns_per_job
    require(not dispatch_ns > NET_DISPATCH_CEILING_NS,
            f"dispatch decision latency {dispatch_ns:.0f}ns/job exceeds the "
            f"{NET_DISPATCH_CEILING_NS:.0f}ns ceiling")
    return {
        "servers": len(speeds),
        "utilization": util,
        "jobs": inproc.metrics.jobs_dispatched,
        "windows": inproc.metrics.windows,
        "report_identical": True,
        "overload_report_identical": True,
        "rejoin_report_identical": True,
        "balanced_no_shed": True,
        "even_split_shed": even_split_shed,
        "dispatch_ns_per_job": dispatch_ns,
        "dispatch_ceiling_ns": NET_DISPATCH_CEILING_NS,
        "inproc_s": inproc.metrics.wall_seconds,
        "inproc_jobs_per_sec": inproc.metrics.jobs_per_sec,
        "socket_s": overload.metrics.wall_seconds,
        "jobs_per_sec": overload.metrics.jobs_per_sec,
        "rtt_p50_s": overload.metrics.rtt_p50_s,
        "rtt_p99_s": overload.metrics.rtt_p99_s,
        "max_inflight": overload.metrics.max_inflight,
        "peak_inflight": overload.metrics.peak_inflight,
        "queue_limit": overload.metrics.queue_limit,
        "peak_submit_queue": overload.metrics.peak_submit_queue,
        "backend": backend,
    }
