"""``repro bench``: time the performance stack, gate it, and append a
record to the ``BENCH_sweep.json`` trajectory.

Eight sections, one function each in :mod:`repro.bench.sections`:

* kernels — vectorized FCFS/PS replay vs the per-job reference loops
  on one synthetic substream (``ps_backend`` names the compiled or
  pure-Python busy-period core in use), and the compiled FCFS cell
  replay bit for bit against the numpy Lindley recursion;
* replication — one fast-path replication vs the event engine on the
  Figure 3 high-skew point, for both disciplines;
* sweep — a Figure 3 subset serially, through the grid executor
  (verifying the series are identical), then cold/warm through the
  replication cache;
* cell — the same subset per-replication vs cell-batched (shared
  streams, batched replay), plus paired-vs-unpaired ORR/WRR
  confidence-interval widths under common random numbers;
* executor — a tiny grid through real workers vs the auto-serial
  small-task path, and a flat grid of 256 sub-millisecond tasks through
  two workers vs serially (the pool's per-unit round trip, gated by an
  absolute ceiling on the pool/serial wall ratio);
* telemetry — the disabled-telemetry overhead guard (<2% of one
  replication, priced from the no-op span path) and a trace-on vs
  trace-off bit-identity check over the emitted JSONL;
* serve (with ``--serve``) — one fault-free service run through the
  vectorized window loop vs the per-job reference loop on the same
  stream, reports field-for-field identical, recording end-to-end
  jobs/sec plus the dispatch plane's ns/job (memoized Algorithm 2
  slices);
* net (with ``--net``) — the networked dispatcher split: in-process
  transport vs the SchedulerService report, a socket-mode overload
  drill (backpressure bounds, byte identity, the *loaded* RESOLVE RTT),
  a rebalanced drill over an imbalanced 2-shard pool (the
  capacity-aware router sheds nothing where the even split sheds), a
  kill+rejoin drill byte-identical across transports, and the dispatch
  decision latency under an absolute ceiling.

A section whose agreement check fails raises
:class:`~repro.bench.common.BenchFailure`; the command then prints
``error: <message>``, exits 1 and appends nothing.  With ``--gate`` the
finished record is also compared against the most recent same-scale
baseline (:func:`repro.obs.gate.check_gate`): a tracked speedup ratio
regressing more than the threshold (default 20%) fails the gate and
nothing is appended.
"""

from __future__ import annotations

import json
import os
import sys
from datetime import datetime, timezone

from ..core.executor import resolve_n_jobs
from ..experiments.base import SCALES
from ..obs.gate import DEFAULT_THRESHOLD, check_gate
from ..sim import ckernel
from ..sim.fastpath import KERNEL_VERSION
from . import sections
from .sections import BenchFailure, skew_config

__all__ = ["BenchFailure", "run_bench"]


def run_bench(args) -> int:
    """Run the ``bench`` subcommand on parsed *args*; returns the exit code."""
    try:
        n_jobs = resolve_n_jobs(args.n_jobs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trajectory = _load_trajectory(args.output)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trajectory {args.output}: {exc}",
              file=sys.stderr)
        return 2
    try:
        record = _measure(args, n_jobs)
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    gate_summary = None
    if args.gate:
        threshold = (
            args.gate_threshold
            if args.gate_threshold is not None
            else DEFAULT_THRESHOLD
        )
        gate = check_gate(record, trajectory, threshold)
        gate_summary = gate.summary()
        if not gate.passed:
            # Failing records never pollute the trajectory baseline.
            print(gate_summary)
            return 1

    trajectory.append(record)
    try:
        _write_trajectory(args.output, trajectory)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    _print_summary(record)
    if gate_summary is not None:
        print(gate_summary)
    print(f"trajectory point #{len(trajectory)} appended to {args.output}")
    return 0


def _load_trajectory(path) -> list:
    """The records in *path*; a missing file starts an empty trajectory.

    A file that exists but cannot be read or parsed raises ``OSError``
    or ``ValueError``: it holds the history, and treating it as empty
    would overwrite every record in it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            trajectory = json.load(fh)
    except FileNotFoundError:
        return []
    return trajectory if isinstance(trajectory, list) else [trajectory]


def _write_trajectory(path, trajectory: list) -> None:
    """Replace *path* with *trajectory*, atomically.

    Staged to a temp file and renamed into place, so an interrupted or
    concurrent bench run can never truncate the trajectory mid-write.
    Raises ``OSError`` (temp file removed) if the write fails.
    """
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=2)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def _measure(args, n_jobs: int) -> dict:
    """The record: provenance, then every section in order."""
    scale = SCALES[args.scale]
    backend = "c" if ckernel.kernel_available() else "python"
    record: dict = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "kernel_version": KERNEL_VERSION,
        # Provenance of the compiled core actually engaged for this
        # record: the exact flags the shared library was built with and
        # the OpenMP width it will fan out to (1 when OpenMP was
        # unavailable and the kernel degraded to the serial build).
        "compiler_flags": list(ckernel.compile_flags() or ()),
        "openmp": bool(ckernel.openmp_enabled()),
        "openmp_threads": int(ckernel.omp_max_threads()),
        "scale": scale.name,
        "n_jobs": n_jobs,
    }
    configs = {
        d: skew_config(10.0, d, scale.duration, scale.warmup)
        for d in ("ps", "fcfs")
    }
    record["kernels"] = sections.kernels(backend)
    record["replication"] = sections.replication(configs, scale)
    record["sweep"], serial = sections.sweep(scale, n_jobs, args.cache)
    record["cell"] = sections.cell(scale, serial)
    record["executor"] = sections.executor(scale, n_jobs)
    record["telemetry"] = sections.telemetry(configs["ps"], scale)
    if args.serve:
        record["serve"] = sections.serve(scale, backend)
    if args.net:
        record["net"] = sections.net(scale, backend)
    return record


def _print_summary(record: dict) -> None:
    """The human-readable stdout lines for one record."""
    k, r, s = record["kernels"], record["replication"], record["sweep"]
    c, e, t = record["cell"], record["executor"], record["telemetry"]
    print(f"benchmark @ scale={record['scale']} n_jobs={record['n_jobs']} "
          f"(kernel v{record['kernel_version']})")
    print(f"  FCFS kernel : {k['fcfs_loop_s']:.3f}s loop -> "
          f"{k['fcfs_fast_s']:.3f}s vectorized "
          f"({k['fcfs_speedup']:.1f}x, {k['fcfs_jobs']} jobs)")
    print(f"  PS kernel   : {k['ps_loop_s']:.3f}s loop -> "
          f"{k['ps_fast_s']:.3f}s segmented "
          f"({k['ps_speedup']:.1f}x, {k['ps_jobs']} jobs, "
          f"backend={k['ps_backend']})")
    for d in ("ps", "fcfs"):
        print(f"  {d.upper():4} run    : {r[d]['engine_s']:.3f}s engine -> "
              f"{r[d]['fast_s']:.3f}s fast path ({r[d]['speedup']:.1f}x, "
              f"agree={r[d]['agree']})")
    print(f"  sweep       : serial {s['serial_s']:.3f}s, "
          f"grid {s['grid_s']:.3f}s (identical={s['grid_identical']})")
    print(f"  cache       : cold {s['cache_cold_s']:.3f}s "
          f"({s['cache_cold_hits']} hits) -> warm {s['cache_warm_s']:.3f}s "
          f"({s['cache_warm_hits']} hits, {s['cache_speedup']:.1f}x)")
    print(f"  cell batch  : fcfs flat {c['flat_s']:.3f}s -> cell "
          f"{c['cell_s']:.3f}s ({c['cell_speedup']:.2f}x); "
          f"ps flat {c['flat_ps_s']:.3f}s -> cell "
          f"{c['cell_ps_s']:.3f}s ({c['cell_speedup_ps']:.2f}x, "
          f"identical={c['cell_identical']})")
    for pp in c["paired"]:
        print(f"  paired CI   : skew {pp['skew']:g}: "
              f"±{pp['paired_half_width']:.4g} paired vs "
              f"±{pp['unpaired_half_width']:.4g} unpaired "
              f"({pp['paired_vs_unpaired']:.2f}x, n={pp['replications']}, "
              f"{pp['verdict']})")
    print(f"  executor    : {e['small_tasks']} tasks via pool "
          f"{e['pool_s']:.3f}s -> auto-serial {e['auto_serial_s']:.3f}s "
          f"({e['auto_serial_speedup']:.1f}x); flat {e['flat_tasks']} tasks "
          f"pool {e['flat_pool_s']:.3f}s vs serial {e['flat_serial_s']:.3f}s "
          f"({e['flat_pool_vs_serial']:.2f}x of serial)")
    print(f"  telemetry   : noop span {t['noop_span_ns']:.0f}ns, "
          f"{t['events_per_replication']} events/rep, disabled overhead "
          f"{t['overhead_fraction']:.3%} (<2%), "
          f"trace identical={t['trace_identical']}")
    if "serve" in record:
        sv = record["serve"]
        print(f"  serve       : ref {sv['reference_s']:.3f}s -> fast "
              f"{sv['fast_s']:.3f}s ({sv['serve_speedup']:.1f}x, "
              f"{sv['jobs_per_sec']:,.0f} jobs/s, dispatch "
              f"{sv['dispatch_ns_per_job']:.0f}ns/job, "
              f"identical={sv['report_identical']}, "
              f"backend={sv['backend']})")
    if "net" in record:
        nv = record["net"]
        print(f"  net         : inproc {nv['inproc_s']:.3f}s "
              f"({nv['inproc_jobs_per_sec']:,.0f} jobs/s) -> sockets "
              f"{nv['socket_s']:.3f}s ({nv['jobs_per_sec']:,.0f} jobs/s "
              f"under overload), dispatch "
              f"{nv['dispatch_ns_per_job']:.0f}ns/job "
              f"(ceiling {nv['dispatch_ceiling_ns']:.0f}), loaded rtt "
              f"p50/p99 {nv['rtt_p50_s'] * 1e3:.1f}/"
              f"{nv['rtt_p99_s'] * 1e3:.1f}ms, "
              f"identical={nv['report_identical']}/"
              f"{nv['overload_report_identical']}/"
              f"{nv['rejoin_report_identical']}, "
              f"rebalance sheds 0 vs {nv['even_split_shed']} even, "
              f"inflight {nv['peak_inflight']}/{nv['max_inflight']}, "
              f"queue {nv['peak_submit_queue']}/{nv['queue_limit']}")
