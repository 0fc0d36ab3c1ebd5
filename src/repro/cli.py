"""Command-line interface: ``repro-sched`` / ``python -m repro``.

Subcommands
-----------

* ``run <experiment-id> [--scale smoke|quick|paper]`` — regenerate one
  of the paper's tables/figures and print it.
* ``list`` — list available experiments.
* ``allocate --speeds 1,1,10 --utilization 0.7`` — print the weighted
  and optimized allocations plus their predicted metrics.
* ``simulate --speeds 1,1,10 --utilization 0.7 [--policies ORR,WRR]`` —
  run the scheduling policies on a custom system and print the three
  paper metrics.
* ``validate --speeds 1,4 --utilization 0.6`` — compare a static
  policy's simulated metrics against the analytical model.
* ``bench [--serve] [--net]`` — time the performance stack (vectorized
  kernels, grid executor, replication cache; ``--serve`` adds the
  serving window loop, ``--net`` the networked dispatcher) against the
  serial baselines and append a record to the ``BENCH_sweep.json``
  trajectory (see :mod:`repro.bench`).

``run``, ``simulate``, and ``bench`` accept ``--n-jobs N|auto`` (or the
``REPRO_JOBS`` environment variable) to fan replications across worker
processes; results are bit-identical to serial runs.  The same three
commands accept ``--trace PATH`` (structured JSONL telemetry: spans and
counters, see :mod:`repro.obs`) and ``--profile [FOLDED]`` (per-phase
wall-time breakdown on stderr, optionally folded stacks for flamegraph
tooling); ``bench --gate`` compares the fresh record against the
recorded baseline and exits nonzero on regression.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduction of 'Optimizing Static Job Scheduling in a Network "
            "of Heterogeneous Computers' (Tang & Chanson, ICPP 2000)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="regenerate a table or figure")
    run_p.add_argument(
        "experiment",
        help="experiment id (see `list`), or 'all' for every experiment",
    )
    run_p.add_argument(
        "--scale",
        choices=("smoke", "quick", "paper"),
        default=None,
        help="run length preset (default: REPRO_SCALE env or 'quick')",
    )
    run_p.add_argument(
        "--quick",
        action="store_const",
        dest="scale",
        const="quick",
        help="shorthand for --scale quick",
    )
    run_p.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also export structured results (figure3-6 sweeps only)",
    )
    run_p.add_argument(
        "--n-jobs",
        metavar="N",
        default=None,
        help="worker processes for sweep replications: an integer or "
             "'auto' (default: REPRO_JOBS env or 1)",
    )
    run_p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persistent replication cache directory "
             "(default: REPRO_CACHE env or no caching)",
    )
    run_p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject server failures into sweep experiments, e.g. "
             "'mtbf=500,mttr=50' (keys: mtbf, mttr, degrade_rate, "
             "degrade_duration, degrade_factor, drift, on_failure, "
             "max_attempts, base_delay, backoff, max_delay)",
    )
    run_p.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="retry crashed or timed-out replications up to N times "
             "with bounded backoff (default 0)",
    )
    run_p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per replication; a stuck replication "
             "counts as crashed (parallel runs only)",
    )
    run_p.add_argument(
        "--resume",
        action="store_true",
        help="checkpoint completed sweep cells to "
             ".repro_checkpoints/<experiment>_<scale>.jsonl and skip "
             "them on re-runs",
    )
    run_p.add_argument(
        "--quarantine",
        action="store_true",
        help="report failing grid cells in the output instead of "
             "aborting the whole sweep",
    )

    sub.add_parser("list", help="list available experiments")

    def add_telemetry_flags(p):
        # dest avoids colliding with unrelated arguments named "trace"
        # (the characterize command's positional CSV, for one).
        p.add_argument(
            "--trace",
            dest="trace_out",
            metavar="PATH",
            default=None,
            help="write structured telemetry (spans + counters) as JSONL "
                 "to PATH; outputs are bit-identical with or without it",
        )
        p.add_argument(
            "--profile",
            dest="profile_out",
            nargs="?",
            const="",
            default=None,
            metavar="FOLDED",
            help="print a per-phase wall-time breakdown to stderr; with a "
                 "path, also write folded stacks for flamegraph tooling",
        )

    add_telemetry_flags(run_p)

    alloc_p = sub.add_parser(
        "allocate", help="compute allocations for a given system"
    )
    alloc_p.add_argument(
        "--speeds", required=True,
        help="comma-separated relative speeds, e.g. 1,1.5,2,10",
    )
    alloc_p.add_argument(
        "--utilization", type=float, required=True, help="system load in (0, 1)"
    )

    sim_p = sub.add_parser(
        "simulate", help="simulate scheduling policies on a custom system"
    )
    sim_p.add_argument("--speeds", required=True,
                       help="comma-separated relative speeds")
    sim_p.add_argument("--utilization", type=float, required=True)
    sim_p.add_argument("--policies", default="WRAN,WRR,ORAN,ORR,LEAST_LOAD",
                       help="comma-separated policy names")
    sim_p.add_argument("--duration", type=float, default=1.0e5,
                       help="simulated seconds per replication")
    sim_p.add_argument("--replications", type=int, default=3)
    sim_p.add_argument("--arrival-cv", type=float, default=3.0,
                       help="inter-arrival coefficient of variation")
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--n-jobs",
        metavar="N",
        default=None,
        help="worker processes for replications: an integer or 'auto' "
             "(default: REPRO_JOBS env or 1); --precision adds "
             "replications one at a time, in process",
    )
    sim_p.add_argument(
        "--paired",
        action="store_true",
        help="also print paired-difference comparisons (common random "
             "numbers) of every policy against the first one listed",
    )
    sim_p.add_argument(
        "--precision",
        type=float,
        default=None,
        metavar="TARGET",
        help="add replications until confidence intervals reach the "
             "target relative half-width (with --paired: until the "
             "paired-vs-baseline intervals do); --replications caps "
             "the count",
    )
    add_telemetry_flags(sim_p)

    val_p = sub.add_parser(
        "validate", help="compare simulation against the analytical model"
    )
    val_p.add_argument("--speeds", required=True)
    val_p.add_argument("--utilization", type=float, required=True)
    val_p.add_argument("--policy", default="WRAN")
    # Heavy-tailed sizes converge slowly: validation needs long runs.
    val_p.add_argument("--duration", type=float, default=5.0e5)
    val_p.add_argument("--replications", type=int, default=4)
    val_p.add_argument("--arrival-cv", type=float, default=1.0,
                       help="1.0 (Poisson) makes the model exact")

    char_p = sub.add_parser(
        "characterize", help="measure a job trace's workload properties"
    )
    char_p.add_argument("trace", help="two-column CSV: arrival_time,size")
    char_p.add_argument("--speeds", default=None,
                        help="optional cluster speeds to compute offered load")

    serve_p = sub.add_parser(
        "serve",
        help="run the quasi-static scheduler service (online estimation, "
             "live re-allocation, admission control)",
    )
    serve_p.add_argument("--speeds", required=True,
                         help="comma-separated relative speeds")
    serve_p.add_argument("--utilization", type=float, default=0.6,
                         help="nominal utilization of the synthetic workload")
    serve_p.add_argument("--duration", type=float, default=2.0e4,
                         help="simulated seconds to serve")
    serve_p.add_argument("--resolve-period", type=float, default=100.0,
                         help="simulated seconds between control-loop "
                              "re-solves (and sequence-swap points)")
    serve_p.add_argument("--window", type=float, default=None,
                         help="rate-estimator window in simulated seconds "
                              "(default: 2 resolve periods)")
    serve_p.add_argument(
        "--workload",
        choices=("stationary", "step", "drift"),
        default="stationary",
        help="synthetic workload shape: constant rate, a one-time rate "
             "step, or a linear drift",
    )
    serve_p.add_argument("--step-time", type=float, default=None,
                         help="when the step happens (default: duration/2)")
    serve_p.add_argument("--step-factor", type=float, default=2.0,
                         help="rate multiplier after the step / at the end "
                              "of the drift")
    serve_p.add_argument("--arrival-cv", type=float, default=1.0,
                         help="inter-arrival coefficient of variation")
    serve_p.add_argument("--size-cv", type=float, default=1.0,
                         help="job-size coefficient of variation")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--shed-threshold", type=float, default=0.95,
                         help="estimated utilization above which admission "
                              "control sheds load")
    serve_p.add_argument(
        "--replay",
        metavar="CSV",
        default=None,
        help="replay a recorded workload instead of the synthetic one "
             "(two-column CSV: arrival_time,size)",
    )
    serve_p.add_argument(
        "--slo",
        type=float,
        default=None,
        metavar="P99",
        help="response-time p99 target; shedding then engages exactly "
             "while the last window's p99 exceeds it (replaces the "
             "utilization-threshold rule)",
    )
    serve_p.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help="inject failures, e.g. 'mtbf=2000,mttr=200' (same keys as "
             "`run --faults`); down servers bounce jobs through the "
             "retry policy",
    )
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="seed of the fault-timeline substreams")
    serve_p.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="crash-safe JSONL checkpoint file (fsynced snapshot of the "
             "full loop state every --checkpoint-every windows)",
    )
    serve_p.add_argument("--checkpoint-every", type=int, default=10,
                         metavar="N",
                         help="windows between checkpoint snapshots")
    serve_p.add_argument(
        "--resume",
        action="store_true",
        help="continue from the last snapshot in --checkpoint (fresh "
             "start if the file has none)",
    )
    serve_p.add_argument(
        "--crash-after",
        type=int,
        default=None,
        metavar="N",
        help="simulate a hard crash after N windows (exit code 3) — "
             "test hook for the --resume round trip",
    )
    serve_p.add_argument("--json", action="store_true",
                         help="print the full service report as JSON")
    add_telemetry_flags(serve_p)

    bench_p = sub.add_parser(
        "bench",
        help="benchmark the performance stack and record a trajectory point",
    )
    bench_p.add_argument(
        "--scale",
        choices=("smoke", "quick", "paper"),
        default="smoke",
        help="sweep scale for the end-to-end benchmark (default: smoke)",
    )
    bench_p.add_argument(
        "--n-jobs",
        metavar="N",
        default=None,
        help="worker processes for the grid pass: an integer or 'auto' "
             "(default: REPRO_JOBS env or 1)",
    )
    bench_p.add_argument(
        "--output",
        metavar="PATH",
        default="BENCH_sweep.json",
        help="trajectory file to append the benchmark record to",
    )
    bench_p.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="cache directory for the cold/warm pass "
             "(default: a temporary directory)",
    )
    bench_p.add_argument(
        "--serve",
        action="store_true",
        help="also benchmark the serving hot path: vectorized window "
             "loop vs the per-job reference (report bit-identity "
             "enforced), recording jobs/sec and dispatch ns/job",
    )
    bench_p.add_argument(
        "--net",
        action="store_true",
        help="also benchmark the networked dispatcher: in-process "
             "transport vs SchedulerService (report bit-identity "
             "enforced), then a socket-mode overload drill recording "
             "sustained jobs/sec under backpressure and the dispatch "
             "decision latency (ns/job, absolute ceiling enforced)",
    )
    bench_p.add_argument(
        "--gate",
        action="store_true",
        help="compare this record against the most recent same-scale "
             "baseline in the trajectory; exit nonzero (and do not "
             "append) on a slowdown beyond the threshold or any "
             "bit-identity divergence",
    )
    bench_p.add_argument(
        "--gate-threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed fractional speedup regression for --gate "
             "(default 0.20)",
    )
    add_telemetry_flags(bench_p)
    return parser


def _parse_speeds(text: str) -> list[float] | None:
    try:
        speeds = [float(s) for s in text.split(",") if s.strip()]
    except ValueError:
        return None
    return speeds or None


_SWEEP_RUNNERS = {
    "figure3": ("run_figure3", "format_figure3"),
    "figure4": ("run_figure4", "format_figure4"),
    "figure5": ("run_figure5", "format_figure5"),
    "figure6": ("run_figure6", "format_figure6"),
    "faults": ("run_faults_extension", "format_faults_extension"),
}


def _resolve_jobs(value) -> int | None:
    """Resolve an ``--n-jobs`` value; print the error and return None on
    bad input (the caller exits 2)."""
    from .core.executor import resolve_n_jobs

    try:
        return resolve_n_jobs(value)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _open_cache(path):
    from .core.cache import ReplicationCache

    return ReplicationCache(path) if path else None


def _grid_options(args, experiment: str) -> dict | None:
    """Harness-hardening and fault-injection kwargs from run flags.

    Returns None (after printing the error) on an out-of-range
    ``--retries`` or ``--task-timeout`` or a malformed ``--faults`` spec;
    an empty dict when no knob is set — the zero-overhead default.
    """
    from .experiments import active_scale

    if args.retries < 0:
        print(f"error: --retries must be non-negative, got {args.retries}",
              file=sys.stderr)
        return None
    if args.task_timeout is not None and not 0.0 < args.task_timeout < math.inf:
        print("error: --task-timeout must be positive and finite, "
              f"got {args.task_timeout}", file=sys.stderr)
        return None
    grid: dict = {}
    if args.faults:
        from .faults import FaultConfig

        try:
            grid["faults"] = FaultConfig.parse(args.faults)
        except ValueError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return None
    if args.retries:
        grid["retries"] = args.retries
    if args.task_timeout is not None:
        grid["task_timeout"] = args.task_timeout
    if args.quarantine:
        grid["quarantine"] = True
    if args.resume:
        from .core.checkpoint import SweepCheckpoint

        scale = active_scale(args.scale)
        path = f".repro_checkpoints/{experiment}_{scale.name}.jsonl"
        grid["checkpoint"] = SweepCheckpoint(path)
        print(f"checkpointing sweep cells to {path}", file=sys.stderr)
    return grid


def _cmd_run(args) -> int:
    from . import experiments

    n_jobs = _resolve_jobs(args.n_jobs)
    if n_jobs is None:
        return 2
    cache = _open_cache(args.cache)

    if args.experiment == "all":
        if args.json:
            print("error: --json is per-experiment; run figures individually",
                  file=sys.stderr)
            return 2
        if args.resume:
            print("error: --resume needs a single experiment (one "
                  "checkpoint per sweep)", file=sys.stderr)
            return 2
        grid = _grid_options(args, "all")
        if grid is None:
            return 2
        for key in experiments.experiment_ids():
            print(experiments.run_experiment(
                key, args.scale, n_jobs=n_jobs, cache=cache, **grid
            ))
            print()
        return 0

    grid = _grid_options(args, args.experiment)
    if grid is None:
        return 2

    if args.json:
        if args.experiment not in _SWEEP_RUNNERS:
            print(
                f"error: --json supports {sorted(_SWEEP_RUNNERS)}, "
                f"not {args.experiment!r}",
                file=sys.stderr,
            )
            return 2
        run_name, fmt_name = _SWEEP_RUNNERS[args.experiment]
        result = getattr(experiments, run_name)(
            args.scale, n_jobs=n_jobs, cache=cache, **grid
        )
        print(getattr(experiments, fmt_name)(result))
        path = experiments.save_sweep_json(result, args.json)
        print(f"\nstructured results written to {path}")
        return 0

    print(experiments.run_experiment(
        args.experiment, args.scale, n_jobs=n_jobs, cache=cache, **grid
    ))
    return 0


def _cmd_list(args) -> int:
    from .experiments import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for key, (description, _) in EXPERIMENTS.items():
        print(f"{key.ljust(width)}  {description}")
    return 0


def _cmd_allocate(args) -> int:
    from .allocation import OptimizedAllocator, WeightedAllocator
    from .experiments.reporting import format_table
    from .queueing import HeterogeneousNetwork

    try:
        speeds = [float(s) for s in args.speeds.split(",") if s.strip()]
    except ValueError:
        print(f"error: could not parse speeds {args.speeds!r}", file=sys.stderr)
        return 2
    if not speeds:
        print("error: no speeds given", file=sys.stderr)
        return 2
    if not 0.0 < args.utilization < 1.0:
        print(
            f"error: utilization must lie in (0, 1), got {args.utilization}",
            file=sys.stderr,
        )
        return 2

    network = HeterogeneousNetwork(speeds, utilization=args.utilization)
    weighted = WeightedAllocator().compute(network)
    optimized = OptimizedAllocator().compute(network)
    rows = [
        [s, float(w), float(o)]
        for s, w, o in zip(speeds, weighted.alphas, optimized.alphas)
    ]
    print(
        format_table(
            ["speed", "weighted alpha", "optimized alpha"],
            rows,
            title=f"Workload allocation at utilization {args.utilization}",
        )
    )
    print()
    print(
        "predicted mean response ratio: "
        f"weighted={weighted.predicted_mean_response_ratio():.4g}, "
        f"optimized={optimized.predicted_mean_response_ratio():.4g}"
    )
    dropped = optimized.zero_share_indices
    if dropped:
        print(f"computers receiving zero work under optimized: {dropped}")
    return 0


def _cmd_simulate(args) -> int:
    """Evaluate the listed policies as one cell: every policy replays
    the same streams per replication (common random numbers), so policy
    differences are matched pairs.  ``--paired`` compares each policy
    with the first one listed; ``--precision`` adds replications until
    the intervals are tight."""
    from .core import evaluate_cell, evaluate_cell_to_precision
    from .core.evaluate import _resolve_policies
    from .experiments.reporting import format_table
    from .sim import SimulationConfig

    n_jobs = _resolve_jobs(args.n_jobs)
    if n_jobs is None:
        return 2
    if args.replications < 1:
        print(f"error: --replications must be positive, got {args.replications}",
              file=sys.stderr)
        return 2
    speeds = _parse_speeds(args.speeds)
    if speeds is None:
        print(f"error: could not parse speeds {args.speeds!r}", file=sys.stderr)
        return 2
    try:
        config = SimulationConfig(
            speeds=speeds, utilization=args.utilization,
            duration=args.duration, arrival_cv=args.arrival_cv,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    try:
        labels = [p.name for p in _resolve_policies(names)]
    except (KeyError, ValueError) as exc:
        print(f"error: --policies: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.paired and len(labels) < 2:
        print("error: --paired needs at least two policies", file=sys.stderr)
        return 2
    baseline = labels[0]

    if args.precision is not None:
        if not args.precision > 0:  # NaN fails too
            print(f"error: --precision must be positive, got {args.precision}",
                  file=sys.stderr)
            return 2
        cell = evaluate_cell_to_precision(
            config, names,
            target_relative_half_width=args.precision,
            paired_baseline=baseline if args.paired else None,
            min_replications=min(3, args.replications),
            max_replications=args.replications,
            base_seed=args.seed,
        )
    else:
        # Bit-identical for every n_jobs: same seeds, outcomes keyed by
        # member; n_jobs=1 runs in process.
        cell = evaluate_cell(
            config, names, replications=args.replications,
            base_seed=args.seed, n_jobs=n_jobs,
        )

    rows = [
        [
            ev.policy_name,
            ev.mean_response_time.mean,
            ev.mean_response_ratio.mean,
            ev.fairness.mean,
            ev.mean_response_ratio.half_width,
        ]
        for ev in (cell[name] for name in cell.policy_names)
    ]
    print(format_table(
        ["policy", "mean resp time", "mean resp ratio", "fairness", "ratio ±CI"],
        rows,
        title=(
            f"speeds={speeds} rho={args.utilization} cv={args.arrival_cv} "
            f"({cell.replications} x {args.duration:.0f} s, shared streams)"
        ),
    ))
    if args.precision is not None:
        mode = "paired" if args.paired else "absolute"
        print(f"stopped after {cell.replications} replication(s) "
              f"({mode} target {args.precision:g})")
    if args.paired:
        prows = []
        for name in cell.policy_names:
            if name == baseline:
                continue
            ps = cell.paired(name, baseline, "mean_response_ratio")
            prows.append([f"{name} - {baseline}", ps.mean_diff,
                          ps.half_width, ps.verdict])
        print()
        print(format_table(
            ["comparison", "mean diff", "±CI", "verdict"],
            prows,
            title=(
                f"paired response-ratio differences vs {baseline} "
                f"(common random numbers; 'a_wins' = policy beats baseline)"
            ),
        ))
    return 0


def _cmd_validate(args) -> int:
    from .analysis import validate_against_theory
    from .core import get_policy
    from .sim import SimulationConfig

    speeds = _parse_speeds(args.speeds)
    if speeds is None:
        print(f"error: could not parse speeds {args.speeds!r}", file=sys.stderr)
        return 2
    try:
        config = SimulationConfig(
            speeds=speeds, utilization=args.utilization,
            duration=args.duration, arrival_cv=args.arrival_cv,
        )
        policy = get_policy(args.policy)
        report = validate_against_theory(
            config, policy, replications=args.replications
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    print(
        f"response time: measured {report.measured_response_time:.4g} vs "
        f"predicted {report.predicted_response_time:.4g} "
        f"({report.response_time_error:+.1%})"
    )
    if args.arrival_cv == 1.0:
        print("Poisson arrivals: the M/G/1-PS model is exact; residual error "
              "is simulation noise.")
    else:
        print("non-Poisson arrivals: positive error measures the burstiness "
              "penalty the model ignores.")
    return 0


def _cmd_characterize(args) -> int:
    from .analysis import characterize
    from .sim import JobTrace

    try:
        trace = JobTrace.from_csv(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = characterize(trace)
    print(report.summary())
    for p, v in report.size_percentiles.items():
        print(f"  size p{p}: {v:.6g} s")
    if args.speeds:
        speeds = _parse_speeds(args.speeds)
        if speeds is None:
            print(f"error: could not parse speeds {args.speeds!r}", file=sys.stderr)
            return 2
        rho = trace.offered_load(sum(speeds))
        print(f"  offered load vs speeds {speeds}: {rho:.3f}")
    model = report.recommended_model()
    print(
        "suggested synthetic model: "
        f"sizes mean={model['size_mean']:.6g} cv={model['size_cv']:.3g}; "
        f"inter-arrivals cv={model['interarrival_cv']:.3g}"
    )
    return 0


def _counter_summary(delta: dict) -> list[str]:
    """Human-readable counter lines, job ledger first, labels grouped.

    Per-server ledger keys collapse to aggregates (``jobs.dispatched``
    across 8 servers prints one line) so the summary stays a glance, not
    a dump; everything else prints verbatim, sorted.
    """
    from .obs import counters as obs_counters

    rolled: dict[str, float] = {}
    for k, v in sorted(delta.items()):
        name, labels = obs_counters.parse_key(k)
        rolled[name] = rolled.get(name, 0) + v
    ledger = [n for n in rolled if n.startswith(("jobs.", "runs."))]
    rest = [n for n in rolled if n not in ledger]
    return [f"  {n:<24} {rolled[n]:g}" for n in ledger + rest]


def _cmd_serve(args) -> int:
    import json as json_module

    from .distributions import distribution_from_mean_cv
    from .service import (
        SchedulerService,
        ServiceCheckpoint,
        ServiceConfig,
        ServiceCrash,
        SyntheticJobSource,
        TraceJobSource,
    )
    from .sim.arrivals import Workload
    from .sim.modulated import drift_profile, step_profile

    speeds = _parse_speeds(args.speeds)
    if speeds is None:
        print(f"error: could not parse speeds {args.speeds!r}", file=sys.stderr)
        return 2
    faults = None
    if args.faults is not None:
        from .faults import FaultConfig

        try:
            faults = FaultConfig.parse(args.faults)
        except ValueError as exc:
            print(f"error: bad --faults spec: {exc}", file=sys.stderr)
            return 2
    if args.resume and args.checkpoint is None:
        print("error: --resume needs --checkpoint PATH", file=sys.stderr)
        return 2
    try:
        config = ServiceConfig(
            speeds=tuple(speeds),
            duration=args.duration,
            control_period=args.resolve_period,
            estimator_window=args.window,
            shed_threshold=args.shed_threshold,
            slo_target=args.slo,
            faults=faults,
            fault_seed=args.fault_seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.replay is not None:
        try:
            data = np.loadtxt(args.replay, delimiter=",", ndmin=2)
            source = TraceJobSource(data[:, 0], data[:, 1])
        except (OSError, ValueError, IndexError) as exc:
            print(f"error: could not read trace {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        if not 0.0 < args.utilization < 1.0:
            print(
                f"error: utilization must lie in (0, 1), got {args.utilization}",
                file=sys.stderr,
            )
            return 2
        step_at = (
            args.step_time if args.step_time is not None else args.duration / 2.0
        )
        if args.workload == "step":
            profile = step_profile(
                step_time=step_at, factor=args.step_factor, horizon=args.duration
            )
        elif args.workload == "drift":
            profile = drift_profile(1.0, args.step_factor, horizon=args.duration)
        else:
            profile = None
        try:
            workload = Workload(
                total_speed=sum(speeds),
                utilization=args.utilization,
                size_distribution=distribution_from_mean_cv(1.0, args.size_cv),
                arrival_cv=args.arrival_cv,
                rate_profile=profile,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        source = SyntheticJobSource(workload, args.seed)

    checkpoint = (
        ServiceCheckpoint(args.checkpoint) if args.checkpoint is not None else None
    )
    service = SchedulerService(
        config,
        source,
        checkpoint=checkpoint,
        checkpoint_every=args.checkpoint_every,
        crash_after=args.crash_after,
    )
    if args.resume:
        try:
            state = checkpoint.load_last()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if state is None:
            print(
                f"note: no snapshot in {args.checkpoint!r}; starting fresh",
                file=sys.stderr,
            )
        else:
            try:
                service.restore(state)
            except ValueError as exc:
                print(f"error: cannot resume: {exc}", file=sys.stderr)
                return 2
    try:
        report = service.run()
    except ServiceCrash as exc:
        print(f"crashed (simulated): {exc}", file=sys.stderr)
        return 3

    if args.json:
        print(json_module.dumps(report.as_dict(), indent=2))
        return 0

    from .experiments.reporting import format_table

    rows = [
        ["jobs offered", report.jobs_offered],
        ["jobs dispatched", report.jobs_dispatched],
        ["jobs shed", report.jobs_shed],
        ["re-solves", report.resolves],
        ["sequence swaps", report.swaps],
        ["time-averaged MRT", report.time_averaged_mrt],
        ["response p50", report.p50],
        ["response p99", report.p99],
        ["clean shutdown", report.clean_shutdown],
    ]
    if faults is not None or report.membership_changes:
        rows[6:6] = [
            ["jobs lost", report.jobs_lost],
            ["jobs retried", report.jobs_retried],
            ["loss rate", report.loss_rate],
            ["membership changes", report.membership_changes],
        ]
    alphas = ", ".join(f"{a:.4f}" for a in report.final_alphas)
    print(
        format_table(
            ["metric", "value"],
            rows,
            title=(
                f"Quasi-static service: {len(speeds)} servers, "
                f"{args.duration:.0f} s, re-solve every "
                f"{args.resolve_period:.0f} s"
            ),
        )
    )
    print()
    print(f"final allocation: [{alphas}]")
    return 0


def _with_telemetry(handler, args) -> int:
    """Run *handler* under --trace / --profile, if requested.

    Everything telemetry adds goes to **stderr** (and the trace file);
    stdout stays byte-identical with or without these flags — asserted
    by the bench telemetry section and the observability tests.
    """
    trace = getattr(args, "trace_out", None)
    profile = getattr(args, "profile_out", None)
    if trace is None and profile is None:
        return handler(args)

    from .obs import (
        ProfileSink,
        add_sink,
        counters,
        disable_tracing,
        enable_tracing,
        remove_sink,
    )

    prof = None
    before = counters.snapshot()
    if trace is not None:
        enable_tracing(trace)
    if profile is not None:
        prof = ProfileSink()
        add_sink(prof)
    try:
        return handler(args)
    finally:
        if prof is not None:
            remove_sink(prof)
            print(prof.table(), file=sys.stderr)
            if profile:  # --profile PATH: folded stacks for flamegraphs
                with open(profile, "w", encoding="utf-8") as fh:
                    fh.write(prof.folded() + "\n")
                print(f"folded stacks written to {profile}", file=sys.stderr)
        if trace is not None:
            disable_tracing()
            print(f"trace written to {trace}", file=sys.stderr)
        delta = counters.diff_since(before)
        if delta:
            print("counters:", file=sys.stderr)
            for line in _counter_summary(delta):
                print(line, file=sys.stderr)


def _cmd_bench(args) -> int:
    from .bench import run_bench

    return run_bench(args)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "list": _cmd_list,
        "allocate": _cmd_allocate,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
        "characterize": _cmd_characterize,
        "serve": _cmd_serve,
        "bench": _cmd_bench,
    }
    return _with_telemetry(handlers[args.command], args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
