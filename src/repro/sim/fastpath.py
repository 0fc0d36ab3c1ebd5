"""Vectorized simulation path for *static* dispatchers.

Static policies decide from the arrival sequence alone, so a run factors
into three independent stages — exactly the decomposition the HPC
guidance calls algorithmic optimization:

1. generate **all** arrival instants and job sizes as numpy arrays;
2. compute **all** dispatch decisions (one multinomial-style batch for
   the random dispatcher; a tight Python loop for round robin);
3. replay each computer's substream through an exact per-discipline
   queue independently — per-server state never interacts under static
   scheduling.

Two replay kernels are provided:

* :func:`fcfs_replay` — exact FCFS via the Lindley recursion vectorized
  as a prefix-max over cumulative ``size/speed − interarrival`` terms
  (:func:`lindley_window`, pure numpy, no per-job Python loop);
* :func:`ps_replay` — exact processor sharing.  The substream is first
  segmented into busy periods with the same Lindley recursion (work
  conservation makes busy-period boundaries discipline-free); singleton
  busy periods — the common case at moderate load — complete at
  ``arrival + size/speed``, and multi-job busy periods replay through
  the virtual-time heap.  With the compiled kernel the whole substream
  is one plan on one server of the cell kernel
  (:mod:`repro.sim.ckernel`); the numpy + Python-heap fallback computes
  the same bits.

:func:`lindley_window` is the one numpy form of the FCFS recursion:
the sweep replays with a fresh server (``free_at = -inf``), while the
serving bank's fallback carries ``free_at`` across windows (the net
server stubs are one-server banks).
:func:`group_by_server` is the one stable group-by-server permutation
the numpy fallbacks share.

:func:`_replay_cell_plans` is the one stage-3 path for dispatch plans.
Given a replication's streams, validated once, it replays every unique
plan of that replication (one fused compiled call, or the per-plan numpy
fallback :func:`_replay_plan`) and summarizes each plan in one metrics
pass.  :func:`run_static_simulation` hands it one plan;
:func:`run_cell` hands it every unique plan of one replication of a
sweep cell, after stage 1 ran once for that replication through a
:class:`~repro.sim.streams.StreamPool` (common random numbers make the
arrays identical across policies, so they are shared zero-copy); and
:func:`repro.sim.trace.run_trace_simulation` hands it one plan over a
recorded trace.  A flat run and a cell member with the same seed
therefore produce the same bits by construction.

Results are statistically identical to :func:`repro.sim.engine.run_simulation`
(same RNG substreams, same boundary rules, drain semantics built in);
the cross-validation tests assert agreement to float-accumulation noise.

:data:`KERNEL_VERSION` tags the numerical behaviour of these kernels and
participates in the persistent replication-cache key
(:mod:`repro.core.cache`): bump it whenever a change here could alter
results beyond float noise, and every cached replication is invalidated.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..dispatch.base import Dispatcher
from ..dispatch.random_dispatch import RandomDispatcher
from ..dispatch.round_robin import (
    RoundRobinDispatcher,
    build_dispatch_sequence,
    sequence_memo_key,
)
from ..metrics.online import RunningStats
from ..metrics.response import MetricsCollector
from ..obs import counters
from ..obs.spans import span
from ..rng import substream
from . import ckernel
from .config import SimulationConfig
from .results import DispatchTrace, ServerStats, SimulationResults
from .streams import StreamPool, materialize_streams

__all__ = [
    "run_static_simulation",
    "run_cell",
    "ps_replay",
    "fcfs_replay",
    "lindley_window",
    "group_by_server",
    "KERNEL_VERSION",
]

#: Version tag of the replay kernels (cache-key component).  v4: the
#: whole replay pipeline — FCFS Lindley recursion included — runs
#: through the fused compiled cell kernel (grouping, per-(plan, server)
#: replay, scatter-back in one C call, OpenMP over disjoint slices).
#: The bump is precautionary — v4 is asserted bit-identical to v3 at
#: any thread count — but the compiled surface grew substantially, so
#: cached v3 entries are retired rather than trusted across the
#: boundary.
KERNEL_VERSION = "4"


def _validate_plan_inputs(
    times, sizes, speeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-stream validation: contiguous float ``(times, sizes, speeds)``.

    ``speeds`` is one server's speed or one speed per server.  Every
    per-server slice of a non-decreasing stream is itself
    non-decreasing, so one check covers every plan and every server of
    a replication.
    """
    times = np.ascontiguousarray(times, dtype=float)
    sizes = np.ascontiguousarray(sizes, dtype=float)
    speeds = np.ascontiguousarray(speeds, dtype=float)
    if times.shape != sizes.shape:
        raise ValueError("arrival_times and sizes must align")
    if times.size > 1 and np.any(np.diff(times) < 0):
        raise ValueError("arrival_times must be non-decreasing")
    if np.any(sizes <= 0):
        raise ValueError("job sizes must be positive")
    if np.any(speeds <= 0):
        raise ValueError(f"speeds must be positive, got {speeds}")
    return times, sizes, speeds


def lindley_window(
    times: np.ndarray, sizes: np.ndarray, speed: float, free_at: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One server's FCFS Lindley recursion, with carried backlog.

    Returns ``(departures, service_times, new_free_at)`` for jobs
    arriving at *times* with demands *sizes* on a server of *speed*
    that frees up at *free_at* (``-inf`` for a fresh server).  With
    service times s and cumulative service U_j = Σ_{i≤j} s_i, the
    recursion D_j = max(D_{j−1}, T_j) + s_j unrolls to

        D_j = U_j + max(free_at, max_{k≤j} (T_k − U_{k−1})),

    a prefix-max over numpy arrays — no per-job Python loop.  The
    compiled kernels seed their running max with ``free_at`` instead;
    max never rounds, so both forms produce the same bits, and
    ``max(x, -inf)`` is exactly ``x``.
    """
    svc = sizes / speed
    cum = np.cumsum(svc)
    starts = times - (cum - svc)
    dep = cum + np.maximum(np.maximum.accumulate(starts), free_at)
    return dep, svc, float(dep[-1]) if dep.size else float(free_at)


def group_by_server(
    targets: np.ndarray, n_servers: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable group-by-server permutation ``order`` and group bounds.

    Server ``i`` owns ``order[offsets[i]:offsets[i+1]]``, its jobs in
    arrival order — the permutation of the compiled counting sort.
    Raises ``ValueError`` if a target lies outside ``[0, n_servers)``.
    """
    if targets.size and (targets.min() < 0 or targets.max() >= n_servers):
        raise ValueError("dispatch target out of range")
    # Stable argsort on a narrow key: casting the range-checked targets
    # to int8 keeps the radix passes to one byte, several times faster
    # than sorting int64 keys — and the cast preserves key order, so
    # the permutation is identical.
    keys = targets.astype(np.int8) if n_servers <= 127 else targets
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(n_servers + 1, dtype=np.int64)
    np.cumsum(np.bincount(targets, minlength=n_servers), out=offsets[1:])
    return order, offsets


def fcfs_replay(arrival_times: np.ndarray, sizes: np.ndarray, speed: float) -> np.ndarray:
    """Exact FCFS replay of one server's substream (completion times)."""
    times, work, _ = _validate_plan_inputs(arrival_times, sizes, speed)
    return lindley_window(times, work, speed, -np.inf)[0]


def _fcfs_replay_loop(arrival_times, sizes, speed: float) -> np.ndarray:
    """Naive per-job Lindley recursion — test oracle and bench baseline."""
    times, work, _ = _validate_plan_inputs(arrival_times, sizes, speed)
    out = np.empty(times.size)
    done = -np.inf
    for j in range(times.size):
        done = max(done, times[j]) + work[j] / speed
        out[j] = done
    return out


def _ps_busy_period(
    times: list, work: list, speed: float, start: int, end: int,
    completions: np.ndarray,
) -> None:
    """Exact virtual-time PS replay of one multi-job busy period.

    With m active jobs the virtual clock advances at rate speed/m, and a
    job of size x arriving at virtual time v departs when the clock
    reaches v + x.  Each busy period starts from a fresh clock, so no
    float drift accumulates across busy periods.
    """
    heap: list[tuple[float, int]] = []  # (departure tag, job index)
    push, pop = heapq.heappush, heapq.heappop
    v = 0.0  # virtual clock
    t_last = times[start]
    for j in range(start, end):
        t_a = times[j]
        # Retire every job whose departure tag is reached before t_a.
        while heap:
            tag = heap[0][0]
            dt = (tag - v) * len(heap) / speed
            if dt < 0.0:
                dt = 0.0
            t_dep = t_last + dt
            if t_dep > t_a:
                break
            completions[pop(heap)[1]] = t_dep
            t_last = t_dep
            v = tag
        if heap:
            v += (t_a - t_last) * speed / len(heap)
        t_last = t_a
        push(heap, (v + work[j], j))

    # Drain: no further arrivals in this busy period, retire in tag order.
    while heap:
        tag = heap[0][0]
        dt = (tag - v) * len(heap) / speed
        if dt < 0.0:
            dt = 0.0
        t_last += dt
        v = tag
        completions[pop(heap)[1]] = t_last


def ps_replay(arrival_times: np.ndarray, sizes: np.ndarray, speed: float) -> np.ndarray:
    """Exact processor-sharing replay of one server's substream.

    Returns the completion time of every job.  The stream is segmented
    into busy periods first: PS is work-conserving, so the instant all
    work from jobs 0..j is finished equals the FCFS departure of job j
    (the Lindley recursion), and job j+1 opens a new busy period iff it
    arrives at or after that depletion instant.  Busy periods containing
    a single job — the bulk of the stream at moderate load — complete at
    ``arrival + size/speed``; multi-job busy periods replay through the
    virtual-time heap.  With the compiled kernel the substream runs as
    one plan on one server of the cell kernel
    (:func:`repro.sim.ckernel.replay_cell_c`); otherwise
    :func:`_ps_replay_core` computes the same bits in numpy and Python.
    """
    times, work, _ = _validate_plan_inputs(arrival_times, sizes, speed)
    fused = ckernel.entry("cell")
    if fused is None or times.size == 0:
        return _ps_replay_core(times, work, speed)
    # One server, so every target is 0 and the kernel cannot reject it.
    comp, *_ = ckernel.replay_cell_c(
        fused, times, work, np.array([float(speed)]),
        [np.zeros(times.size, dtype=np.int64)], True,
    )
    return comp[0].copy()


def _ps_replay_core(
    times: np.ndarray, work: np.ndarray, speed: float
) -> np.ndarray:
    """Numpy + Python-heap form of :func:`ps_replay`, minus validation."""
    n = times.size
    if n == 0:
        return np.empty(0)

    completions = np.empty(n)
    depletion, svc, _ = lindley_window(times, work, speed, -np.inf)
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.greater_equal(times[1:], depletion[:-1], out=starts[1:])
    bounds = np.flatnonzero(starts)
    ends = np.append(bounds[1:], n)

    single = (ends - bounds) == 1
    idx = bounds[single]
    completions[idx] = times[idx] + svc[idx]

    if idx.size < bounds.size:
        multi = ~single
        # Plain-float lists: scalar indexing in the heap loop is
        # several times faster than indexing numpy element-wise.
        tl = times.tolist()
        wl = work.tolist()
        for b, e in zip(bounds[multi].tolist(), ends[multi].tolist()):
            _ps_busy_period(tl, wl, speed, b, e, completions)
    return completions


def _ps_replay_loop(arrival_times, sizes, speed: float) -> np.ndarray:
    """Single global heap loop over every job (the pre-segmentation
    implementation) — test oracle and bench baseline for :func:`ps_replay`."""
    times, work, _ = _validate_plan_inputs(arrival_times, sizes, speed)
    n = times.size
    completions = np.empty(n)
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    v = 0.0
    t_last = 0.0
    for j in range(n):
        t_a = times[j]
        while heap:
            tag = heap[0][0]
            dt = (tag - v) * len(heap) / speed
            if dt < 0.0:
                dt = 0.0
            t_dep = t_last + dt
            if t_dep > t_a:
                break
            completions[pop(heap)[1]] = t_dep
            t_last = t_dep
            v = tag
        if heap:
            v += (t_a - t_last) * speed / len(heap)
        else:
            v = 0.0
        t_last = t_a
        push(heap, (v + work[j], j))
    while heap:
        tag = heap[0][0]
        dt = (tag - v) * len(heap) / speed
        if dt < 0.0:
            dt = 0.0
        t_last += dt
        v = tag
        completions[pop(heap)[1]] = t_last
    return completions


#: Discipline → validation-free numpy replay used by the fallback
#: :func:`_replay_plan` (:func:`_replay_cell_plans` validates the whole
#: arrival stream once instead of per server).  Its keys are the
#: disciplines the fast path implements.
_REPLAY_CORES = {
    "ps": _ps_replay_core,
    "fcfs": lambda times, work, speed: lindley_window(
        times, work, speed, -np.inf
    )[0],
}


# ----------------------------------------------------------------------
# Stage-2 dispatch-sequence memo
# ----------------------------------------------------------------------
#
# Weighted round robin (Algorithm 2) ignores job sizes and randomness:
# its target sequence is a pure function of (alphas, arrival count), and
# the sequence for N jobs is a prefix of the sequence for M > N jobs.
# Replications of one sweep cell therefore share a single sequence.
# The memo itself lives with the algorithm
# (:func:`repro.dispatch.round_robin.build_dispatch_sequence`) and owns
# private dispatchers, so caller-side resets can never corrupt a cached
# prefix; this wrapper only adds the telemetry span.


def _dispatch_targets(dispatcher: Dispatcher, sizes: np.ndarray) -> np.ndarray:
    """All stage-2 decisions, memoized for Algorithm 2 round robin
    (bit-identical to calling ``select_batch`` directly)."""
    with span("dispatch", jobs=int(sizes.size)) as sp:
        if isinstance(dispatcher, RoundRobinDispatcher):
            targets, status = build_dispatch_sequence(
                dispatcher.alphas, sizes.size, guard_init=dispatcher.guard_init
            )
            sp.set(memo=status)
            return targets
        sp.set(memo="bypass")
        return dispatcher.select_batch(sizes)


def _resolve_replay(config: SimulationConfig):
    try:
        return _REPLAY_CORES[config.discipline]
    except KeyError:
        raise ValueError(
            "the fast path implements the PS discipline and the FCFS "
            f"discipline ({sorted(_REPLAY_CORES)}); "
            f"discipline={config.discipline!r} needs the event engine — "
            "use repro.sim.engine.run_simulation instead"
        ) from None


def _summarize_plan(
    targets: np.ndarray,
    times: np.ndarray,
    sizes: np.ndarray,
    speeds: np.ndarray,
    replay: tuple,
    *,
    cut: int,
    job_size_stats: RunningStats | None,
    warmup: float,
    duration: float,
    record_trace: bool,
) -> SimulationResults:
    """One plan's metrics pass over arrival-order completions.

    ``replay`` is ``(completions, grouped_sizes, offsets, tail)`` from
    the replay stage: server ``i`` owns
    ``grouped_sizes[offsets[i]:offsets[i+1]]``, and ``tail`` is this
    plan's ``(response, ratio, counts)`` precursor slice from the
    compiled kernel (see :func:`repro.sim.ckernel.replay_cell_c`), or
    None, in which case the same elementwise expressions and integer
    counts are computed here in numpy — the same bits.  Arrivals are
    sorted, so the post-warm-up jobs are the suffix from ``cut``: the
    exact jobs, in the same order, that the boolean mask
    ``times >= warmup`` selects, without the gather copies.
    ``job_size_stats`` is that suffix's size accumulation (None when
    the suffix is empty); it depends only on the stream, so one
    accumulation serves every plan of a replication, and merging it
    into a fresh collector copies its aggregates verbatim.
    """
    completions, grouped_sizes, offsets, tail = replay
    with span("summarize", jobs=int(times.size)):
        metrics = MetricsCollector(warmup_end=warmup)
        if tail is not None:
            response, response_ratio, dispatched_counts = tail
        else:
            response = completions[cut:] - times[cut:]
            response_ratio = response / sizes[cut:]
            dispatched_counts = np.bincount(targets[cut:], minlength=speeds.size)
        if job_size_stats is not None:
            metrics.response_time.add_array(response)
            metrics.response_ratio.add_array(response_ratio)
            metrics.job_size.merge(job_size_stats)
        post_warmup_total = int(times.size) - cut
        server_stats = []
        for i, speed in enumerate(speeds.tolist()):
            lo, hi = int(offsets[i]), int(offsets[i + 1])
            server_stats.append(
                ServerStats(
                    index=i,
                    speed=speed,
                    jobs_received=hi - lo,
                    jobs_completed=hi - lo,
                    # PS and FCFS are work-conserving: busy time equals
                    # served work/speed.
                    busy_time=float(grouped_sizes[lo:hi].sum()) / speed,
                    dispatch_fraction=(
                        int(dispatched_counts[i]) / post_warmup_total
                        if post_warmup_total
                        else 0.0
                    ),
                )
            )

        trace = None
        if record_trace:
            trace = DispatchTrace(times=times, targets=targets)
        return SimulationResults(
            metrics=metrics.finalize(),
            servers=tuple(server_stats),
            duration=duration,
            warmup=warmup,
            total_arrivals=int(times.size),
            trace=trace,
        )


def _replay_plan(
    targets: np.ndarray,
    times: np.ndarray,
    sizes: np.ndarray,
    speeds: np.ndarray,
    discipline: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Numpy stage 3 for one validated dispatch plan.

    Returns ``(completions, grouped_sizes, offsets)``.  Groups with
    :func:`group_by_server` — within a group the stable sort preserves
    arrival order, so each server's slice is bit-identical to a
    boolean-mask extraction — and replays per server in Python, the
    same bits as the compiled kernel.  An out-of-range target raises
    the grouping's ``ValueError``.
    """
    order, offsets = group_by_server(targets, speeds.size)
    grouped_times = times[order]
    grouped_sizes = sizes[order]
    grouped_completions = np.empty_like(grouped_times)

    core = _REPLAY_CORES[discipline]
    for i in range(speeds.size):
        lo, hi = int(offsets[i]), int(offsets[i + 1])
        if lo == hi:
            continue
        with span("replay", backend="python", server=i, jobs=hi - lo):
            grouped_completions[lo:hi] = core(
                grouped_times[lo:hi], grouped_sizes[lo:hi], float(speeds[i])
            )

    completions = np.empty_like(times)
    completions[order] = grouped_completions
    return completions, grouped_sizes, offsets


def run_static_simulation(
    config: SimulationConfig,
    dispatcher: Dispatcher,
    alphas,
    *,
    seed: int | np.random.SeedSequence = 0,
    record_trace: bool = False,
) -> SimulationResults:
    """Run one replication of a static policy on the vectorized path."""
    if not dispatcher.is_static:
        raise ValueError(
            f"{type(dispatcher).__name__} needs feedback; use run_simulation instead"
        )
    _resolve_replay(config)  # fail fast on unsupported disciplines

    # Stage 1 — all arrivals and sizes up front.
    times, sizes, speeds = _validate_plan_inputs(
        *materialize_streams(config, seed), config.speeds
    )
    # Stage 2 — all dispatch decisions (memoized across replications
    # for weighted round robin).
    dispatcher.reset(alphas)
    targets = _dispatch_targets(dispatcher, sizes)
    return _replay_cell_plans(
        [targets], times, sizes, speeds, config.discipline,
        config.warmup, config.duration, record_trace,
    )[0]


def run_cell(
    config: SimulationConfig,
    policies,
    seeds,
    *,
    pool: StreamPool | None = None,
    members=None,
    record_trace: bool = False,
) -> dict[tuple[int, int], SimulationResults]:
    """Batched fast path over the (policy × replication) grid of one cell.

    Parameters
    ----------
    policies:
        Sequence of policy-like objects (``.name``, ``.is_static``,
        ``.fractions(network)``, ``.build_dispatcher(speeds, rng)`` —
        duck-typed so this module stays independent of
        :mod:`repro.core`).
    seeds:
        One root seed per replication (ints or ``SeedSequence``s,
        typically from :func:`repro.rng.replication_seeds`).
    pool:
        :class:`~repro.sim.streams.StreamPool` supplying stage-1 arrays
        (a private pool is created when omitted).  Replications present
        in the pool — e.g. shared-memory segments attached by a grid
        worker — are replayed without re-sampling.
    members:
        Optional iterable of ``(policy_index, replication_index)`` pairs
        restricting which members run (cache-served members are skipped
        this way); all members run when omitted.

    Returns ``{(policy_index, replication_index): SimulationResults}``.
    Each member's result is bit-identical to
    :func:`run_static_simulation` with the same (config, seed): stage 1
    is shared across policies precisely because common random numbers
    make the draws identical, stage 2 runs per member with the
    dispatcher rebuilt from the member's own "dispatch" substream, and
    stage 3 is the :func:`_replay_cell_plans` call a single run makes,
    over every unique plan of the replication at once.
    """
    _resolve_replay(config)  # fail fast on unsupported disciplines
    seeds = list(seeds)
    if members is None:
        wanted = [(pi, r) for r in range(len(seeds)) for pi in range(len(policies))]
    else:
        wanted = [(int(pi), int(r)) for pi, r in members]
        for pi, r in wanted:
            if not 0 <= r < len(seeds):
                raise IndexError(f"replication index {r} out of range")
            if not 0 <= pi < len(policies):
                raise IndexError(f"policy index {pi} out of range")
    if pool is None:
        pool = StreamPool()

    network = config.network()
    alphas_memo: dict[int, object] = {}
    # Round-robin plans are a pure function of (alphas, guard_init,
    # count) — no stream dependence — so one materialized sequence
    # serves every member (and every same-length replication), and
    # members with equal allocations share the identical array, making
    # the dedup below an identity check.
    rr_memo: dict[tuple, np.ndarray] = {}
    dispatchers_ok: set[int] = set()
    results: dict[tuple[int, int], SimulationResults] = {}
    by_rep: dict[int, list[int]] = {}
    for pi, r in wanted:
        by_rep.setdefault(r, []).append(pi)

    for r in sorted(by_rep):
        times, sizes = pool.get(config, seeds[r])
        # Validate the shared streams once per replication, before
        # stage 2: every plan replays the same arrays.
        times, sizes, speeds = _validate_plan_inputs(times, sizes, config.speeds)
        # Dispatch-plan dedup, the cell-only optimization: two members
        # of the same replication whose stage-2 target sequences are
        # identical (ORR and WRR collapse to the same plan on a
        # homogeneous network, for instance) replay identical
        # per-server substreams, so one replay serves both members —
        # bit-identity is trivially preserved.
        u_shared: np.ndarray | None = None
        random_memo: dict[bytes, np.ndarray] = {}
        plans: list[np.ndarray] = []
        member_plan: dict[int, int] = {}
        for pi in by_rep[r]:
            policy = policies[pi]
            if pi not in alphas_memo:
                if not getattr(policy, "is_static", True):
                    raise ValueError(
                        f"policy {policy.name!r} needs feedback; "
                        "use run_simulation instead"
                    )
                alphas_memo[pi] = policy.fractions(network)
            dispatcher = policy.build_dispatcher(
                config.speeds, substream(seeds[r], "dispatch")
            )
            if pi not in dispatchers_ok:
                if not dispatcher.is_static:
                    raise ValueError(
                        f"{type(dispatcher).__name__} needs feedback; "
                        "use run_simulation instead"
                    )
                dispatchers_ok.add(pi)
            dispatcher.reset(alphas_memo[pi])
            if isinstance(dispatcher, RandomDispatcher):
                # Common random numbers, one level deeper: every random
                # dispatcher of this replication was just built from an
                # identical fresh "dispatch" substream, so the first
                # member's uniforms ARE every member's uniforms — draw
                # once and only re-map per allocation.
                with span("dispatch", jobs=int(sizes.size)) as sp:
                    if u_shared is None:
                        u_shared = dispatcher.draw(sizes.size)
                        sp.set(memo="bypass")
                    else:
                        sp.set(memo="cell-crn")
                    # Same uniforms + same cumulative fractions → same
                    # targets, so the mapping itself memoizes on the
                    # allocation (WRAN and ORAN coincide on a
                    # homogeneous network, for instance); the memo hit
                    # returns the identical array, making the plan
                    # dedup below an identity check.
                    key = dispatcher.allocation_key()
                    targets = random_memo.get(key)
                    if targets is None:
                        targets = dispatcher.select_batch_given(u_shared)
                        random_memo[key] = targets
            elif isinstance(dispatcher, RoundRobinDispatcher):
                key = (
                    sequence_memo_key(dispatcher.alphas, dispatcher.guard_init),
                    int(sizes.size),
                )
                targets = rr_memo.get(key)
                if targets is None:
                    targets = _dispatch_targets(dispatcher, sizes)
                    rr_memo[key] = targets
            else:
                targets = _dispatch_targets(dispatcher, sizes)
            plan_idx = None
            for j, prev in enumerate(plans):
                # Identity, not np.array_equal: the random and
                # round-robin memos above hand equal plans back as the
                # same object (ORR/WRR with equal fractions share one
                # cached array), and a missed dedup of coincidentally
                # equal arrays only costs a redundant replay — it can
                # never change results.
                if prev is targets:
                    plan_idx = j
                    counters.inc("cell.plan_reuse")
                    break
            if plan_idx is None:
                plans.append(targets)
                plan_idx = len(plans) - 1
            member_plan[pi] = plan_idx

        plan_results = _replay_cell_plans(
            plans, times, sizes, speeds, config.discipline,
            config.warmup, config.duration, record_trace,
        )
        for pi in by_rep[r]:
            result = plan_results[member_plan[pi]]
            results[(pi, r)] = result
            # One ledger entry per member, reused plans included, so the
            # cell path tallies exactly what the flat path would.
            counters.record_run(result)
    return results


def _replay_cell_plans(
    plans: list[np.ndarray],
    times: np.ndarray,
    sizes: np.ndarray,
    speeds: np.ndarray,
    discipline: str,
    warmup: float,
    duration: float,
    record_trace: bool,
) -> list[SimulationResults]:
    """Stage 3 for every unique dispatch plan of one replication.

    The one stage-3 path: single runs, trace replays and cell batches
    all end here, each with streams checked once by
    :func:`_validate_plan_inputs` (before stage 2, so its temporaries
    never coexist with the plans).  With the compiled kernel every plan
    replays in ONE C call — grouping, per-(plan, server) replay (OpenMP
    over disjoint slices), scatter back and the post-warm-up precursors
    share the streams and the arena scratch.  Without it, or when a
    target is out of range (the numpy grouping then raises the error),
    each plan runs :func:`_replay_plan`.  Either way each plan gets one
    numpy metrics pass, :func:`_summarize_plan`.
    """
    if not plans:
        return []
    cut = int(np.searchsorted(times, warmup, side="left"))
    job_size_stats = None
    if cut < times.size:
        job_size_stats = RunningStats()
        job_size_stats.add_array(sizes[cut:])

    replays = None
    fused = ckernel.entry("cell")
    if fused is not None:
        with span(
            "replay",
            backend="c",
            plans=len(plans),
            servers=int(speeds.size),
            jobs=int(times.size),
        ):
            comp, gw, offs, tail, ok = ckernel.replay_cell_c(
                fused, times, sizes, speeds, plans, discipline == "ps",
                warmup_cut=cut,
            )
        if ok:
            replays = [
                (comp[k], gw[k], offs[k],
                 None if tail is None else (tail[0][k], tail[1][k], tail[2][k]))
                for k in range(len(plans))
            ]
    if replays is None:
        backend, threads = "python", 1
        replays = (
            (*_replay_plan(targets, times, sizes, speeds, discipline), None)
            for targets in plans
        )
    else:
        backend, threads = "c", ckernel.omp_max_threads()

    out = []
    for targets, replay in zip(plans, replays):
        counters.inc(
            "kernel.engaged",
            discipline=discipline,
            backend=backend,
            version=KERNEL_VERSION,
            threads=threads,
        )
        out.append(
            _summarize_plan(
                targets, times, sizes, speeds, replay, cut=cut,
                job_size_stats=job_size_stats, warmup=warmup,
                duration=duration, record_trace=record_trace,
            )
        )
    return out
