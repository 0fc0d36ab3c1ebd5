"""Grid-parallel replication executor with a shared worker pool.

An entire sweep — every (sweep point × policy × replication) cell of a
figure — flattens into one task list and fans out across worker
processes.  These properties make it the backbone of every experiment
runner:

* **One pool per process.**  The ``ProcessPoolExecutor`` is created
  lazily on first parallel use and reused across sweep points, figures,
  and :func:`~repro.core.evaluate.evaluate_policy_parallel` calls in a
  single CLI invocation — no per-call spin-up churn.  Worker processes
  persist, so per-process memos (the round-robin dispatch-sequence
  cache) stay warm across tasks.
* **Bit-identical results.**  Each replication derives its streams from
  its own seed, workers rebuild policies from registry names, and the
  caller aggregates outcomes keyed by task — never by completion order.
  ``n_jobs=1`` bypasses the pool (and pickling) entirely.
* **Failure isolation.**  A crashing task does not poison the pool: the
  worker captures the traceback per task, a dead or stuck worker costs
  only the work it held, and the parent raises one aggregate
  :class:`GridTaskError` naming the failed cells.
* **One ledger, one scheduler.**  Both runners — the flat
  per-replication grid and the whole-cell grid — look every member up
  in the sweep checkpoint, then the replication cache, and file each
  finished outcome into both the same way (:class:`_Ledger`).  What is
  left runs as *units* — a :class:`ReplicationTask`, or one
  replication-chunk slice of a cell — either in process
  (:func:`_run_serial`) or through :func:`_run_pool`, the only code
  that submits work to the shared pool.  Both hand back each unit's
  rows as it settles, so the cache and checkpoint grow cell by cell.
  A unit that dies or times out is charged as a whole: every member of
  a cell slice gets the failure.

The flat grid adds hardening knobs (all off by default):

* ``retries`` — transient failures (a task raising, a worker process
  dying, a task timing out) are retried up to N times with a bounded
  exponential backoff before counting as failed.
* ``task_timeout`` — wall-clock budget per task (parallel runs only).
  A task past its deadline is treated as crashed: the pool is recycled
  and the task retried or failed.
* ``quarantine`` — tasks that exhaust their retries are quarantined
  into ``GridReport.failures`` as structured :class:`TaskFailure`
  records (naming the sweep point, policy, and replication) instead of
  aborting the whole grid.

Either grid takes a ``checkpoint`` — a
:class:`~repro.core.checkpoint.SweepCheckpoint`; finished cells are
appended as they complete and skipped on re-runs (``repro run
--resume``).

``n_jobs`` resolution: explicit argument > ``REPRO_JOBS`` environment
variable > 1 (serial).  The string ``"auto"`` maps to ``os.cpu_count()``.
"""

from __future__ import annotations

import atexit
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from ..obs import counters
from ..obs.spans import span
from ..sim import run_cell
from ..sim.config import SimulationConfig
from ..sim.streams import SharedStreamPool, StreamPool, attach_streams
from .cache import ReplicationCache
from .checkpoint import SweepCheckpoint
from .evaluate import (
    Outcome,
    _cell_fast_indices,
    _result_outcome,
    run_policy_once,
    summarize_outcomes,
)
from .policies import get_policy

__all__ = [
    "ReplicationTask",
    "CellTask",
    "TaskFailure",
    "GridTaskError",
    "GridReport",
    "resolve_n_jobs",
    "shared_executor",
    "shutdown_shared_executor",
    "run_replication_grid",
    "run_cell_grid",
    "summarize_outcomes",
]

_pool: ProcessPoolExecutor | None = None
_pool_workers = 0

#: Test seam: when set (before workers fork), every unit calls
#: ``_TEST_WORKER_HOOK(task)`` with each member's :class:`ReplicationTask`
#: before it runs — fault-injection tests use it to crash or stall
#: specific members.  Never set in production.
_TEST_WORKER_HOOK = None

#: Bounded backoff between retry attempts of a failed task (seconds).
_RETRY_BASE_DELAY = 0.05
_RETRY_MAX_DELAY = 2.0

#: Grids at or below this many pending members run in process even when
#: ``n_jobs > 1`` (see :func:`_runs_serial`).
_AUTO_SERIAL_TASKS = 4


def resolve_n_jobs(value: int | str | None = None) -> int:
    """Resolve a worker count: arg > ``REPRO_JOBS`` env > 1; 'auto' = cores."""
    if value is None:
        value = os.environ.get("REPRO_JOBS", "1")
    if isinstance(value, str):
        text = value.strip().lower()
        if text == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(text)
        except ValueError:
            raise ValueError(
                f"n_jobs must be a positive integer or 'auto', got {value!r}"
            ) from None
    n = int(value)
    if n < 1:
        raise ValueError(f"n_jobs must be positive, got {n}")
    return n


def shared_executor(n_jobs: int) -> ProcessPoolExecutor:
    """The process-wide worker pool, created lazily on first use.

    Reused while ``n_jobs`` stays the same; a different ``n_jobs``
    drains the old pool and builds a fresh one.
    """
    global _pool, _pool_workers
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be positive, got {n_jobs}")
    if _pool is None or _pool_workers != n_jobs:
        shutdown_shared_executor()
        _pool = ProcessPoolExecutor(max_workers=n_jobs)
        _pool_workers = n_jobs
    return _pool


def shutdown_shared_executor() -> None:
    """Drain and drop the shared pool (no-op when none exists)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown()
        _pool = None
        _pool_workers = 0


def _rebuild_pool() -> None:
    """Discard a broken/stalled pool without waiting on stuck workers."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
        _pool_workers = 0
        counters.inc("executor.pool_rebuilds")


atexit.register(shutdown_shared_executor)


@dataclass(frozen=True)
class ReplicationTask:
    """One replication of one policy on one configuration."""

    key: Hashable
    config: SimulationConfig
    policy_name: str
    estimation_error: float | None
    seed: int | np.random.SeedSequence


@dataclass(frozen=True)
class CellTask:
    """One sweep cell: every (policy × replication) member at one point.

    ``policy_names`` are the display names used in member keys — the
    same ``(x, policy, r)`` triples the flat per-replication grid uses —
    while ``base_names``/``estimation_errors`` are the registry
    coordinates workers rebuild each policy from (mirroring
    :class:`ReplicationTask`, whose cache keys these cells share).
    """

    x: Hashable
    config: SimulationConfig
    policy_names: tuple[str, ...]
    base_names: tuple[str, ...]
    estimation_errors: tuple[float | None, ...]
    seeds: tuple

    def member_key(self, pi: int, r: int) -> tuple:
        return (self.x, self.policy_names[pi], r)

    def member(self, pi: int, r: int) -> ReplicationTask:
        """Member ``(pi, r)`` as the flat grid's task (same key, same
        cache key)."""
        return ReplicationTask(
            key=self.member_key(pi, r),
            config=self.config,
            policy_name=self.base_names[pi],
            estimation_error=self.estimation_errors[pi],
            seed=self.seeds[r],
        )

    def policies(self):
        return [
            get_policy(base, estimation_error=err)
            for base, err in zip(self.base_names, self.estimation_errors)
        ]


@dataclass(frozen=True)
class TaskFailure:
    """One grid cell that exhausted its retries.

    ``key`` is the sweep's task key — for the standard experiment
    sweeps a ``(sweep point, policy, replication)`` triple — so the
    failure names exactly which cell died and why.
    """

    key: Hashable
    policy_name: str
    attempts: int
    error: str

    def describe(self) -> str:
        where = self.key
        if isinstance(where, tuple) and len(where) == 3:
            x, policy, r = where
            where = f"point {x!r}, policy {policy}, replication {r}"
        first_line = self.error.strip().splitlines()[-1] if self.error else "?"
        return f"{where} ({self.attempts} attempt(s)): {first_line}"


class GridTaskError(RuntimeError):
    """Aggregate error for a grid run with unrecoverable task failures.

    Subclasses :class:`RuntimeError` and keeps the historical
    "grid tasks failed" message, so existing handlers keep working;
    structured details live in :attr:`failures`.
    """

    def __init__(self, failures: list["TaskFailure"], total: int):
        self.failures = tuple(failures)
        detail = "\n\n".join(
            f"task {f.key!r}:\n{f.error}" for f in failures[:5]
        )
        super().__init__(
            f"{len(failures)} of {total} grid tasks failed; "
            f"first failure(s):\n{detail}"
        )


@dataclass
class GridReport:
    """Outcomes plus observability for one grid run."""

    #: task key → :class:`~repro.core.evaluate.Outcome`.
    outcomes: dict
    cache_hits: int = 0
    cache_misses: int = 0
    #: Per-stage wall-clock seconds ("cache_lookup", "simulate").
    timings: dict[str, float] = field(default_factory=dict)
    #: Quarantined cells (only populated with ``quarantine=True``).
    failures: list[TaskFailure] = field(default_factory=list)
    #: Finished cells served from the sweep checkpoint.
    checkpoint_hits: int = 0
    #: Task attempts beyond the first (crashes/timeouts that recovered).
    retried: int = 0


class _Ledger:
    """Where each grid member's outcome comes from and where it goes.

    :meth:`lookup` serves a member from the sweep checkpoint, else from
    the replication cache (recording the hit into the checkpoint), else
    leaves it pending.  :meth:`settle` files each outcome as it
    finishes — into the report, the cache and the checkpoint — or
    records the failure.  A stored outcome whose dispatch fractions do
    not fit its configuration came from a damaged file: it is treated
    like an unreadable entry, so the member recomputes and is rewritten.
    """

    def __init__(self, cache: ReplicationCache | None,
                 checkpoint: SweepCheckpoint | None):
        self.cache = cache
        self.checkpoint = checkpoint
        self.report = GridReport(outcomes={})
        self._cache_keys: dict[Hashable, str] = {}
        self._names: dict[Hashable, str] = {}
        self._failures: list[TaskFailure] = []
        self._total = 0
        self._t_simulate = 0.0

    def lookup(self, members: Iterable[ReplicationTask]) -> set:
        """Serve every stored member; returns the keys left to run."""
        members = list(members)
        report = self.report
        pending = set()
        t0 = time.perf_counter()
        with span("cache_lookup", tasks=len(members)):
            done = self.checkpoint.load() if self.checkpoint is not None else {}
            for task in members:
                n = task.config.n
                stored = done.get(task.key)
                if stored is not None and stored.fits(n):
                    report.outcomes[task.key] = stored
                    report.checkpoint_hits += 1
                    continue
                if self.cache is not None:
                    ck = self.cache.task_key(
                        task.config, task.policy_name, task.estimation_error,
                        task.seed,
                    )
                    self._cache_keys[task.key] = ck
                    hit = self.cache.get(ck)
                    if hit is not None and hit.fits(n):
                        counters.inc("cache.hit")
                        report.outcomes[task.key] = hit
                        report.cache_hits += 1
                        if self.checkpoint is not None:
                            self.checkpoint.record(task.key, hit)
                        continue
                    counters.inc("cache.miss")
                    report.cache_misses += 1
                pending.add(task.key)
                self._names[task.key] = task.policy_name
        self._total = len(members)
        report.timings["cache_lookup"] = time.perf_counter() - t0
        self._t_simulate = time.perf_counter()
        return pending

    def settle(self, rows, attempts: int = 1) -> None:
        """File one finished unit's ``(key, outcome, error)`` rows: each
        outcome, or its failure."""
        for key, outcome, error in rows:
            self.report.retried += attempts - 1
            if error is not None:
                self._failures.append(
                    TaskFailure(key=key, policy_name=self._names[key],
                                attempts=attempts, error=error)
                )
                continue
            self.report.outcomes[key] = outcome
            if self.cache is not None:
                self.cache.put(self._cache_keys[key], outcome)
            if self.checkpoint is not None:
                self.checkpoint.record(key, outcome)

    def close(self, quarantine: bool = False) -> GridReport:
        """The finished report; raises :class:`GridTaskError` on
        failures unless *quarantine*."""
        report = self.report
        report.timings["simulate"] = time.perf_counter() - self._t_simulate
        if self._failures:
            report.failures = self._failures
            if not quarantine:
                raise GridTaskError(self._failures, self._total)
        return report


def _run_replication(task: ReplicationTask):
    policy = get_policy(task.policy_name, estimation_error=task.estimation_error)
    result = run_policy_once(task.config, policy, seed=task.seed)
    return _result_outcome(result)


def _run_cell_members(config: SimulationConfig, policies, seeds, members,
                      pool: StreamPool) -> list[Outcome]:
    """The outcomes of the ``(policy index, replication)`` *members* of
    one cell on pooled streams, in member order.

    Static members on ps/fcfs go through one batched
    :func:`~repro.sim.fastpath.run_cell` replay (replications share the
    round-robin sequence memo and the per-call setup); everything else
    runs :func:`run_policy_once` member by member.  The seeds are the
    same either way.
    """
    fast = _cell_fast_indices(config, policies)
    fast_members = [(pi, r) for pi, r in members if pi in fast]
    batched = {}
    if fast_members:
        batched = run_cell(config, policies, seeds, pool=pool,
                           members=fast_members)
    out = []
    for pi, r in members:
        result = batched.get((pi, r))
        if result is None:
            result = run_policy_once(config, policies[pi], seed=seeds[r])
        out.append(_result_outcome(result))
    return out


def _run_slice(task: CellTask, members, rep_handles) -> list[Outcome]:
    """The outcomes of one cell slice, in member order.

    ``rep_handles`` is a list of ``(r, StreamHandle | None)``: a handle
    maps the parent's shared-memory streams for replication ``r``, None
    means every member of that replication is engine-bound and samples
    privately.  ``rep_handles=None`` is the in-process whole cell: one
    private pool sized to the cell's replications.
    """
    pool = StreamPool(max_entries=max(1, len(rep_handles or task.seeds)))
    attached = []
    try:
        for r, handle in rep_handles or ():
            if handle is not None:
                view = attach_streams(handle)
                attached.append(view)
                pool.prime(task.config, task.seeds[r], view.times, view.sizes)
        return _run_cell_members(task.config, task.policies(), task.seeds,
                                 members, pool)
    finally:
        pool = None  # noqa: F841 — drop shm-backed views before unmapping
        for view in attached:
            view.close()


def _members(unit) -> list[ReplicationTask]:
    """A unit's members as the flat grid's tasks, in row order."""
    if isinstance(unit, ReplicationTask):
        return [unit]
    task, pairs, _ = unit
    return [task.member(pi, r) for pi, r in pairs]


def _failed(members, error: str) -> list:
    return [(member.key, None, error) for member in members]


def _run_unit(unit):
    """Run one unit — a :class:`ReplicationTask`, or a cell slice
    ``(task, members, rep_handles)`` whose ``members`` are ``(pi, r)``
    pairs — in a worker or in process.  Never raises: returns
    ``(rows, delta)`` with one ``(key, outcome, error)`` row per member,
    a failure charging every member.  ``delta`` is the counter delta
    (:func:`repro.obs.counters.diff_since`) the parent merges so a
    parallel grid reports the same run-level counters as a serial one;
    in-process callers ignore it.
    """
    before = counters.snapshot()
    members = _members(unit)
    try:
        if _TEST_WORKER_HOOK is not None:
            for member in members:
                _TEST_WORKER_HOOK(member)
        if isinstance(unit, ReplicationTask):
            outcomes = [_run_replication(unit)]
        else:
            outcomes = _run_slice(*unit)
    except Exception:  # noqa: BLE001 — captured per unit by design
        return _failed(members, traceback.format_exc()), None
    rows = [(m.key, outcome, None) for m, outcome in zip(members, outcomes)]
    return rows, counters.diff_since(before)


def _retry_delay(next_attempt: int) -> float:
    """Bounded exponential backoff before attempt *next_attempt* (≥ 2)."""
    return min(_RETRY_MAX_DELAY, _RETRY_BASE_DELAY * 2.0 ** (next_attempt - 2))


def _runs_serial(n_jobs: int, n_pending: int, retries: int = 0,
                 task_timeout: float | None = None) -> bool:
    """Whether a grid with *n_pending* members to run stays in process.

    Small grids do: spinning up (or round-tripping) worker processes
    costs more than a handful of replications, and serial execution is
    bit-identical anyway — unless retries, a timeout or the test worker
    hook ask for real workers.
    """
    return n_jobs == 1 or n_pending <= 1 or (
        n_pending <= _AUTO_SERIAL_TASKS
        and retries == 0
        and task_timeout is None
        and _TEST_WORKER_HOOK is None
    )


def _run_serial(units: Iterable, retries: int):
    """In-process execution with inline retries (no timeout support):
    yields ``(rows, attempts)`` per unit."""
    for unit in units:
        for attempt in range(1, retries + 2):
            rows, _ = _run_unit(unit)
            if attempt > retries or all(err is None for _, _, err in rows):
                yield rows, attempt
                break
            time.sleep(_retry_delay(attempt + 1))


def _run_pool(units: Iterable, n_jobs: int, retries: int = 0,
              task_timeout: float | None = None):
    """Run *units* on the shared pool, yielding ``(rows, attempts)`` per
    unit as it settles.

    Each unit gets its own future, at most ``2 * n_jobs`` in flight
    (``n_jobs`` under a timeout).  A dead worker breaks the *whole*
    pool, and ``BrokenProcessPool`` cannot say which unit killed it —
    so nobody is charged for a break; every unit in flight becomes a
    *suspect* and re-runs in isolation (one unit at a time on a rebuilt
    pool).  A break can surface in a result or at the next submit (a
    worker may die while the caller files earlier rows); both count the
    same.  Alone, the culprit is unambiguous: an isolated break or
    timeout charges that unit's attempt, while innocent bystanders
    complete for free.
    """
    todo = deque((unit, 1) for unit in units)
    isolated: deque = deque()  # suspects: run one at a time
    in_flight: dict = {}  # future -> (unit, attempt, deadline)
    ready: list = []
    timeout_error = f"task exceeded its {task_timeout}s wall-clock budget"

    def settle(unit, attempt, rows, queue):
        """Record a finished attempt, or requeue a failed one with backoff."""
        if attempt <= retries and any(err is not None for _, _, err in rows):
            time.sleep(_retry_delay(attempt + 1))
            queue.append((unit, attempt + 1))
        else:
            ready.append((rows, attempt))

    def recycle():
        """Units in flight on a broken pool join the suspects, uncharged."""
        isolated.extend((u, attempt) for u, attempt, _ in in_flight.values())
        in_flight.clear()
        _rebuild_pool()

    # A deadline runs from submission, so under a timeout no unit may
    # wait for a worker; otherwise a spare unit per worker keeps it busy.
    width = n_jobs if task_timeout is not None else 2 * n_jobs
    while todo or isolated or in_flight:
        solo = bool(isolated)
        queue = isolated if solo else todo
        pool = shared_executor(n_jobs)
        broken = False
        while queue and len(in_flight) < (1 if solo else width):
            unit, attempt = queue.popleft()
            deadline = (
                time.monotonic() + task_timeout if task_timeout is not None else None
            )
            try:
                in_flight[pool.submit(_run_unit, unit)] = (unit, attempt, deadline)
            except BrokenProcessPool:
                # A worker died while the caller was filing earlier rows.
                queue.appendleft((unit, attempt))
                broken = True
                break
        if broken:
            recycle()
            continue

        wait_timeout = None
        if task_timeout is not None:
            nearest = min(d for (_, _, d) in in_flight.values())
            wait_timeout = max(0.0, nearest - time.monotonic()) + 0.01
        done, _ = wait(set(in_flight), timeout=wait_timeout,
                       return_when=FIRST_COMPLETED)

        for fut in done:
            unit, attempt, _ = in_flight.pop(fut)
            try:
                rows, delta = fut.result()
                counters.merge(delta)
            except BrokenProcessPool:
                broken = True
                if not solo:
                    isolated.append((unit, attempt))
                    continue
                rows = _failed(_members(unit), "task killed its worker process")
            except Exception:  # noqa: BLE001 — surfaced as a unit failure
                rows = _failed(_members(unit), traceback.format_exc())
            settle(unit, attempt, rows, queue)

        if task_timeout is not None:
            now = time.monotonic()
            for fut, (unit, attempt, deadline) in list(in_flight.items()):
                if now >= deadline:
                    in_flight.pop(fut)
                    # A running unit can't be reclaimed: recycle the pool.
                    broken |= not fut.cancel()
                    rows = _failed(_members(unit), timeout_error)
                    settle(unit, attempt, rows, queue)

        if broken:
            recycle()
        yield from ready
        ready.clear()


def run_replication_grid(
    tasks: Iterable[ReplicationTask],
    *,
    n_jobs: int | str | None = None,
    cache: ReplicationCache | None = None,
    retries: int = 0,
    task_timeout: float | None = None,
    quarantine: bool = False,
    checkpoint: SweepCheckpoint | None = None,
) -> GridReport:
    """Run every task: checkpoint first, then cache, then the worker grid.

    Results are keyed by ``task.key`` so aggregation is insensitive to
    completion order; with the same seeds the outcome is bit-identical
    to running the tasks serially.  Tasks that fail after ``retries``
    extra attempts are raised as one aggregate :class:`GridTaskError` —
    or, with ``quarantine=True``, reported in ``GridReport.failures``
    while every healthy cell still completes.  See the module docstring
    for the hardening knobs.
    """
    tasks = list(tasks)
    n_jobs = resolve_n_jobs(n_jobs)
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if task_timeout is not None and task_timeout <= 0:
        raise ValueError(f"task_timeout must be positive, got {task_timeout}")
    ledger = _Ledger(cache, checkpoint)
    todo = ledger.lookup(tasks)
    pending = [task for task in tasks if task.key in todo]
    if _runs_serial(n_jobs, len(pending), retries, task_timeout):
        completed = _run_serial(pending, retries)
    else:
        completed = _run_pool(pending, n_jobs, retries, task_timeout)
    for rows, attempts in completed:
        ledger.settle(rows, attempts)
    return ledger.close(quarantine)


def _cell_slices(task: CellTask, members, n_jobs: int,
                 shared: SharedStreamPool):
    """One cell's pending *members* as ``(task, members, rep_handles)``
    units, at most one per worker, each replication's streams shared
    through *shared*.

    Slices are replication chunks that keep every policy of a
    replication in the same worker: the batched replay can then dedup
    identical dispatch plans across policies, which a per-policy
    slicing would forfeit.
    """
    fast = _cell_fast_indices(task.config, task.policies())
    by_rep: dict[int, list[int]] = {}
    for pi, r in members:
        by_rep.setdefault(r, []).append(pi)
    reps = sorted(by_rep)
    n_chunks = min(n_jobs, len(reps))
    for chunk in (reps[i::n_chunks] for i in range(n_chunks)):
        rep_handles = [
            (r, shared.share(task.config, task.seeds[r])
             if any(pi in fast for pi in by_rep[r]) else None)
            for r in chunk
        ]
        yield task, [(pi, r) for r in chunk for pi in by_rep[r]], rep_handles


def run_cell_grid(
    cells: Iterable[CellTask],
    *,
    n_jobs: int | str | None = None,
    cache: ReplicationCache | None = None,
    checkpoint: SweepCheckpoint | None = None,
) -> GridReport:
    """Run sweep cells whole: one stream materialization per replication.

    Member outcomes are keyed ``(cell.x, policy_name, r)`` with the same
    cache keys as the flat per-replication grid, so results, caches, and
    checkpoints are interchangeable between the two paths — and with the
    same seeds the outcomes are bit-identical.  In process, each cell is
    one unit on its own stream pool.  Parallel runs fan a cell out as
    replication-chunk slices (:func:`_cell_slices`) through
    :func:`_run_pool`, shipping each replication's streams through
    shared memory; cells run back to back so at most one cell's streams
    are resident, and the parent owns and always unlinks every segment,
    even when a worker dies.

    Hardening (retries, timeouts, quarantine) is deliberately absent —
    sweeps that need it take :func:`run_replication_grid`.
    """
    cells = list(cells)
    n_jobs = resolve_n_jobs(n_jobs)
    ledger = _Ledger(cache, checkpoint)
    todo = ledger.lookup(
        task.member(pi, r)
        for task in cells
        for pi in range(len(task.policy_names))
        for r in range(len(task.seeds))
    )
    pending: list[tuple[CellTask, list[tuple[int, int]]]] = []
    for task in cells:
        members = [
            (pi, r)
            for pi in range(len(task.policy_names))
            for r in range(len(task.seeds))
            if task.member_key(pi, r) in todo
        ]
        if members:
            pending.append((task, members))

    if _runs_serial(n_jobs, len(todo)):
        completed = _run_serial(
            [(task, members, None) for task, members in pending], 0
        )
    else:
        completed = _run_cells_pooled(pending, n_jobs)
    for rows, attempts in completed:
        ledger.settle(rows, attempts)
    return ledger.close()


def _run_cells_pooled(pending, n_jobs: int):
    """Each pending cell's slices through :func:`_run_pool`, one cell's
    shared streams at a time."""
    for task, members in pending:
        with SharedStreamPool() as shared:
            yield from _run_pool(_cell_slices(task, members, n_jobs, shared),
                                 n_jobs)
