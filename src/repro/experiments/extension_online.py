"""Extension experiment: quasi-static service vs oracle static ORR.

Section 5.4 argues the static allocation is insensitive to moderate
parameter error, so recomputing it rarely should cost little.  This
experiment quantifies that claim for the online service: a
:class:`~repro.service.SchedulerService` estimates (λ, m, s) from the
live stream and re-solves Theorems 1–3 every *control period*, and we
sweep that period against

* a **stationary** workload (constant ρ) — the service should match the
  clairvoyant static ORR allocation to within estimator noise; and
* a **step** workload (λ doubles mid-run) — the service must *track*,
  and the re-solve period bounds how long it dispatches under a stale
  allocation.

Common random numbers: each replication draws one job trace per
workload and feeds the *same* trace to every control period and to the
oracle, so all MRT differences are attributable to the control policy.
Reported per (workload, period):

* time-averaged service MRT over the run, and its ratio to the oracle
  static ORR replay of the same trace (oracle = Algorithm 1 on the
  true parameters; for the step workload the oracle re-solves exactly
  at the step — the best any quasi-static scheme could do);
* mean allocation tracking error — time-averaged L∞ distance between
  the service's live allocation and the instantaneous true-parameter
  oracle;
* recovery time after the step, in control periods, until the live
  allocation is within 0.05 (L∞) of the new oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..allocation.optimized import optimized_fractions
from ..dispatch.round_robin import RoundRobinDispatcher
from ..distributions import distribution_from_mean_cv
from ..queueing.network import HeterogeneousNetwork
from ..service import (
    SchedulerService,
    ServerBank,
    ServiceConfig,
    SyntheticJobSource,
    TraceJobSource,
)
from ..sim.arrivals import Workload
from ..sim.modulated import step_profile
from .base import Scale, active_scale
from .reporting import format_table

__all__ = ["OnlineCell", "OnlineResult", "run_online_extension"]

SPEEDS = (1.0, 2.0, 3.0)
BASE_UTILIZATION = 0.35
STEP_FACTOR = 2.0
#: Control periods swept (simulated seconds between re-solves).
CONTROL_PERIODS = (50.0, 100.0, 400.0)
#: Recovery criterion: L∞ distance to the new oracle allocation.
RECOVERY_TOLERANCE = 0.05
#: The per-job estimator loop runs in Python; the full offline horizons
#: would take minutes for no statistical gain, so the service horizon is
#: a capped slice of the scale's duration.
MAX_DURATION = 2.4e4


@dataclass(frozen=True)
class OnlineCell:
    """Aggregates for one (workload, control period) combination."""

    workload: str
    control_period: float
    service_mrt: float
    oracle_mrt: float
    tracking_error: float
    recovery_periods: float  # NaN for the stationary workload
    swaps: float
    shed: float

    @property
    def mrt_ratio(self) -> float:
        return self.service_mrt / self.oracle_mrt


@dataclass(frozen=True)
class OnlineResult:
    cells: tuple[OnlineCell, ...]
    scale: Scale
    duration: float
    replications: int

    def cell(self, workload: str, period: float) -> OnlineCell:
        for c in self.cells:
            if c.workload == workload and c.control_period == period:
                return c
        raise KeyError(f"no cell for {workload!r} at period {period}")

    def format(self) -> str:
        rows = [
            [
                c.workload,
                c.control_period,
                c.service_mrt,
                c.oracle_mrt,
                c.mrt_ratio,
                c.tracking_error,
                c.recovery_periods,
                c.swaps,
                c.shed,
            ]
            for c in self.cells
        ]
        return format_table(
            [
                "workload",
                "period",
                "service MRT",
                "oracle MRT",
                "ratio",
                "track err",
                "recovery (periods)",
                "swaps",
                "shed",
            ],
            rows,
            title=(
                "Extension: quasi-static service vs oracle static ORR "
                f"(rho {BASE_UTILIZATION} -> x{STEP_FACTOR} step, "
                f"horizon {self.duration:.0f} s, {self.replications} reps) "
                f"[{self.scale.name} scale]"
            ),
        )


def _make_trace(duration: float, seed: int, profile) -> tuple[np.ndarray, np.ndarray]:
    workload = Workload(
        total_speed=sum(SPEEDS),
        utilization=BASE_UTILIZATION,
        size_distribution=distribution_from_mean_cv(1.0, 1.0),
        arrival_cv=1.0,
        rate_profile=profile,
    )
    return SyntheticJobSource(workload, seed).jobs_until(duration)


def _oracle_mrt(alpha_segments, times, sizes) -> float:
    """Replay the trace under piecewise-static oracle allocations.

    ``alpha_segments`` is [(until_time, alphas), ...]; the dispatch
    sequence restarts at each boundary, mirroring the service's own
    drain-and-switch, so the comparison isolates *estimation* quality.
    """
    bank = ServerBank(SPEEDS)
    responses = []
    lo = 0.0
    for until, alphas in alpha_segments:
        mask = (times >= lo) & (times < until)
        lo = until
        seg_times, seg_sizes = times[mask], sizes[mask]
        if seg_times.size == 0:
            continue
        dispatcher = RoundRobinDispatcher()
        dispatcher.reset(alphas)
        targets = dispatcher.select_batch(seg_sizes)
        departures, _, _, _ = bank.replay_window_grouped(
            targets, seg_times, seg_sizes
        )
        responses.append(departures - seg_times)
    if not responses:
        return float("nan")
    all_resp = np.concatenate(responses)
    return float(all_resp.mean())


def _tracking_error(report, oracle_at) -> float:
    """Job-weighted mean L∞ distance from the instantaneous oracle."""
    num = 0.0
    den = 0
    for w in report.windows:
        target = oracle_at(0.5 * (w.start + w.end))
        num += w.admitted * float(np.max(np.abs(w.alphas - target)))
        den += w.admitted
    return num / den if den else float("nan")


def _recovery_periods(report, step_at, period, oracle_post) -> float:
    """Control periods after the step until within RECOVERY_TOLERANCE."""
    for w in report.windows:
        if w.end <= step_at:
            continue
        if float(np.max(np.abs(w.alphas - oracle_post))) < RECOVERY_TOLERANCE:
            return max(0.0, (w.end - step_at) / period)
    return float("inf")


def run_online_extension(scale: str | Scale | None = None) -> OnlineResult:
    """Sweep the re-solve period on stationary and step workloads."""
    scale = active_scale(scale)
    duration = float(min(scale.duration, MAX_DURATION))
    step_at = 0.5 * duration
    network = HeterogeneousNetwork(np.asarray(SPEEDS), utilization=BASE_UTILIZATION)
    oracle_pre = optimized_fractions(network)
    oracle_post = optimized_fractions(
        network.with_utilization(STEP_FACTOR * BASE_UTILIZATION)
    )

    workloads = {
        "stationary": None,
        "step": step_profile(
            step_time=step_at, factor=STEP_FACTOR, horizon=duration
        ),
    }
    cells = []
    for wl_name, profile in workloads.items():
        if wl_name == "stationary":
            oracle_segments = [(duration, oracle_pre)]

            def oracle_at(t, _pre=oracle_pre):
                return _pre
        else:
            oracle_segments = [(step_at, oracle_pre), (duration, oracle_post)]

            def oracle_at(t, _pre=oracle_pre, _post=oracle_post):
                return _pre if t < step_at else _post

        # CRN: one trace per replication, shared by every period sweep
        # point and by the oracle replay.
        traces = [
            _make_trace(duration, scale.base_seed + r, profile)
            for r in range(scale.replications)
        ]
        oracle_mrts = [
            _oracle_mrt(oracle_segments, times, sizes) for times, sizes in traces
        ]
        for period in CONTROL_PERIODS:
            config = ServiceConfig(
                speeds=SPEEDS, duration=duration, control_period=period
            )
            mrts, errs, recs, swaps, shed = [], [], [], [], []
            for times, sizes in traces:
                report = SchedulerService(
                    config, TraceJobSource(times, sizes)
                ).run()
                mrts.append(report.time_averaged_mrt)
                errs.append(_tracking_error(report, oracle_at))
                swaps.append(report.swaps)
                shed.append(report.jobs_shed)
                if wl_name == "step":
                    recs.append(
                        _recovery_periods(report, step_at, period, oracle_post)
                    )
            cells.append(
                OnlineCell(
                    workload=wl_name,
                    control_period=period,
                    service_mrt=float(np.mean(mrts)),
                    oracle_mrt=float(np.mean(oracle_mrts)),
                    tracking_error=float(np.mean(errs)),
                    recovery_periods=(
                        float(np.mean(recs)) if recs else float("nan")
                    ),
                    swaps=float(np.mean(swaps)),
                    shed=float(np.mean(shed)),
                )
            )
    return OnlineResult(
        cells=tuple(cells),
        scale=scale,
        duration=duration,
        replications=scale.replications,
    )
