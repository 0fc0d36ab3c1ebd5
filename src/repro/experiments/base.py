"""Shared experiment infrastructure: scales, sweeps, result containers.

Every experiment runner regenerates one table or figure of the paper.
Runs are parameterized by a :class:`Scale`:

* ``smoke`` — seconds-long runs for CI and unit tests;
* ``quick`` — minutes-long runs whose *shape* already matches the paper
  (default for the benchmark harness);
* ``paper`` — the full Section 4.1 protocol (4.0e6 simulated seconds,
  10 replications) for faithful regeneration.

Select via the ``REPRO_SCALE`` environment variable or pass a scale
explicitly.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..core import PolicyEvaluation, get_policy
from ..obs import counters as obs_counters
from ..core.cache import ReplicationCache, default_cache
from ..core.executor import (
    CellTask,
    run_cell_grid,
    run_replication_grid,
    summarize_outcomes,
)
from ..rng import replication_seeds
from ..sim import SimulationConfig

__all__ = ["Scale", "SCALES", "active_scale", "SweepResult", "run_policy_sweep"]

logger = logging.getLogger("repro.sweep")


@dataclass(frozen=True)
class Scale:
    """Run-length preset (simulated seconds, replication count)."""

    name: str
    duration: float
    replications: int
    base_seed: int = 2000  # ICPP 2000 vintage

    def __post_init__(self):
        # Written so that NaN fails it, and so does inf.
        if not 0.0 < self.duration < math.inf:
            raise ValueError(
                f"scale {self.name!r}: duration must be positive and "
                f"finite, got {self.duration}"
            )
        if self.replications < 1:
            raise ValueError(
                f"scale {self.name!r}: replications must be at least 1, "
                f"got {self.replications}"
            )

    @property
    def warmup(self) -> float:
        """A quarter of the run, like the paper."""
        return 0.25 * self.duration

    def with_replications(self, replications: int) -> "Scale":
        return replace(self, replications=replications)


SCALES: dict[str, Scale] = {
    "smoke": Scale("smoke", duration=2.0e4, replications=2),
    "quick": Scale("quick", duration=1.5e5, replications=3),
    "paper": Scale("paper", duration=4.0e6, replications=10),
}


def active_scale(override: str | Scale | None = None) -> Scale:
    """Resolve the scale: explicit arg > ``REPRO_SCALE`` env > quick."""
    if isinstance(override, Scale):
        return override
    name = override or os.environ.get("REPRO_SCALE", "quick")
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; expected one of {sorted(SCALES)}"
        ) from None


@dataclass
class SweepResult:
    """Evaluations for (x value × policy), the shape of Figures 3–6.

    ``cells[x][policy]`` is a :class:`PolicyEvaluation`.
    """

    experiment_id: str
    title: str
    x_label: str
    x_values: list[float]
    policies: list[str]
    scale: Scale
    cells: dict[float, dict[str, PolicyEvaluation]] = field(default_factory=dict)
    #: Replications served from / missed in the persistent cache (both
    #: zero when the sweep ran without a cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cells served from a sweep checkpoint (``repro run --resume``).
    checkpoint_hits: int = 0
    #: Structured reports for quarantined cells (empty unless the grid
    #: ran with ``quarantine=True`` and something actually failed).
    failures: list = field(default_factory=list)
    #: Per-stage wall-clock seconds ("plan", "cache_lookup", "simulate",
    #: "aggregate") recorded by the grid executor.
    timings: dict[str, float] = field(default_factory=dict)
    #: Run-level counter delta accumulated over this sweep (job ledger,
    #: cache and kernel engagement, stream-pool reuse) — worker-process
    #: tallies included, see :mod:`repro.obs.counters`.
    counters: dict[str, float] = field(default_factory=dict)

    def series(self, policy: str, metric: str) -> np.ndarray:
        """Metric means across the sweep for one policy (a figure line)."""
        if policy not in self.policies:
            raise KeyError(f"unknown policy {policy!r}; have {self.policies}")
        return np.asarray(
            [self.cells[x][policy].metric(metric).mean for x in self.x_values]
        )

    def improvement(self, better: str, worse: str, metric: str) -> np.ndarray:
        """Relative gain of *better* over *worse*: 1 − better/worse.

        The paper's "ORR outperforms WRR by 42%" statements are this
        quantity on mean response ratio.
        """
        b = self.series(better, metric)
        w = self.series(worse, metric)
        return 1.0 - b / w


def run_policy_sweep(
    experiment_id: str,
    title: str,
    x_label: str,
    x_values,
    config_for_x,
    policies,
    scale: Scale,
    *,
    estimation_errors: dict[str, float] | None = None,
    n_jobs: int | str | None = None,
    cache: ReplicationCache | None = None,
    faults=None,
    retries: int = 0,
    task_timeout: float | None = None,
    quarantine: bool = False,
    checkpoint=None,
    cell_batch: bool = True,
) -> SweepResult:
    """Evaluate each policy at each sweep point.

    The sweep runs **cell-batched**: each sweep point becomes one
    :class:`~repro.core.executor.CellTask` whose replications share
    materialized arrival/size streams across every policy (common random
    numbers make the draws identical, so sampling once per replication
    is free speedup), hardened or not.

    Parameters
    ----------
    config_for_x:
        Callable mapping an x value to a :class:`SimulationConfig`
        *without* duration/warmup — the scale fills those in.
    estimation_errors:
        Optional map of policy-name → relative ρ estimation error
        (Figure 6's ORR(±e%) variants).
    n_jobs:
        Worker processes (int or ``"auto"``); default is the
        ``REPRO_JOBS`` environment variable, falling back to 1.
    cache:
        Persistent replication cache; defaults to the directory named
        by the ``REPRO_CACHE`` environment variable (no caching when
        unset).  Completed replications are reused, so re-running a
        figure at the same scale — or resuming an interrupted sweep —
        skips finished work.
    faults:
        Optional :class:`~repro.faults.FaultConfig` injected into every
        sweep point's configuration (unless the point's own config
        already carries one — fault experiments set it per point).
    retries / task_timeout / quarantine / checkpoint:
        Harness hardening, forwarded to the grid runner: bounded
        retries for crashed or timed-out replications, a wall-clock
        budget per replication, structured quarantine instead of an
        aggregate abort, and a :class:`~repro.core.checkpoint.SweepCheckpoint`
        so ``repro run --resume`` skips finished cells.
    cell_batch:
        ``False`` runs the per-replication reference grid instead
        (:func:`~repro.core.executor.run_replication_grid`): the same
        task keys, cache entries and bits, one replication at a time.
    """
    x_values = [float(x) for x in x_values]
    result = SweepResult(
        experiment_id=experiment_id,
        title=title,
        x_label=x_label,
        x_values=x_values,
        policies=list(policies),
        scale=scale,
    )
    errors = estimation_errors or {}
    if cache is None:
        cache = default_cache()
    counters_before = obs_counters.snapshot()

    # Plan: one cell per sweep point.
    t_plan = time.perf_counter()
    seeds = replication_seeds(scale.base_seed, scale.replications)
    display: dict[str, str] = {}
    configs: dict[float, SimulationConfig] = {}
    cell_tasks: list[CellTask] = []
    for x in x_values:
        base = config_for_x(x)
        config = SimulationConfig(
            speeds=base.speeds,
            utilization=base.utilization,
            duration=scale.duration,
            warmup=scale.warmup,
            size_distribution=base.size_distribution,
            arrival_cv=base.arrival_cv,
            discipline=base.discipline,
            quantum=base.quantum,
            drain=base.drain,
            feedback=base.feedback,
            rate_profile=base.rate_profile,
            faults=base.faults if base.faults is not None else faults,
        )
        configs[x] = config
        base_names = [name.split("(")[0] for name in policies]
        cell_errors = [errors.get(name) for name in policies]
        for name, base_name, err in zip(policies, base_names, cell_errors):
            # Resolve up front: fail fast and fix the display name.
            display[name] = get_policy(base_name, estimation_error=err).name
        cell_tasks.append(
            CellTask(
                x=x,
                config=config,
                policy_names=tuple(policies),
                base_names=tuple(base_names),
                estimation_errors=tuple(cell_errors),
                seeds=tuple(seeds),
            )
        )
    plan_s = time.perf_counter() - t_plan

    grid = dict(n_jobs=n_jobs, cache=cache, retries=retries,
                task_timeout=task_timeout, quarantine=quarantine,
                checkpoint=checkpoint)
    if cell_batch:
        report = run_cell_grid(cell_tasks, **grid)
    else:
        report = run_replication_grid(
            [cell.member(pi, r)
             for cell in cell_tasks
             for pi in range(len(policies))
             for r in range(len(seeds))],
            **grid,
        )

    # Aggregate in (x, policy, seed) order — completion order never
    # matters, so parallel and serial sweeps summarize identically.
    t_agg = time.perf_counter()
    for x in x_values:
        row: dict[str, PolicyEvaluation] = {}
        for name in policies:
            outcomes = [
                report.outcomes[(x, name, r)]
                for r in range(scale.replications)
                if (x, name, r) in report.outcomes
            ]
            if not outcomes:
                continue  # every replication quarantined: no cell
            row[name] = summarize_outcomes(display[name], configs[x], outcomes)
        result.cells[x] = row

    result.cache_hits = report.cache_hits
    result.cache_misses = report.cache_misses
    result.checkpoint_hits = report.checkpoint_hits
    result.failures = list(report.failures)
    result.timings = {
        "plan": plan_s,
        **report.timings,
        "aggregate": time.perf_counter() - t_agg,
    }
    result.counters = obs_counters.diff_since(counters_before)
    if cache is not None:
        logger.info(
            "%s: replication cache %d hits / %d misses",
            experiment_id,
            report.cache_hits,
            report.cache_misses,
        )
    return result
