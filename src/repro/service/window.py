"""One quasi-static control window, shared by every serving path.

:class:`WindowStep` is the service's control window without the replay,
sans IO.  It owns the controller, the admission gate, the live
Algorithm 2 dispatcher and the report, and has three calls:
:meth:`~WindowStep.admit` (observe the offered arrivals, thin them),
:meth:`~WindowStep.fold` (feed completions back to the estimators) and
:meth:`~WindowStep.close` (re-solve at the boundary, drain-and-switch,
record the window).  The caller replays between ``admit`` and ``fold``
— the in-process :class:`~repro.service.loop.SchedulerService` on its
:class:`~repro.service.replay.ServerBank`, the networked
:class:`~repro.net.orchestrator.OrchestratorShard` over DISPATCH and
COMPLETE messages — so every path's report comes from the same code.

:func:`window_count` and :func:`window_bounds` cut a run into control
windows for every caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

import numpy as np

from ..dispatch.round_robin import RoundRobinDispatcher, SequenceRoundRobin
from ..obs import counters
from ..sim import ckernel
from .controller import AdmissionGate, ControlDecision, QuasiStaticController

if TYPE_CHECKING:
    from .loop import ServiceConfig

__all__ = [
    "WindowRecord",
    "ServiceReport",
    "WindowStep",
    "build_controller",
    "window_bounds",
    "window_count",
]


def window_count(duration: float, control_period: float) -> int:
    """Number of control windows that cover ``(0, duration]``."""
    return int(math.ceil(duration / control_period))


def window_bounds(
    k: int, duration: float, control_period: float
) -> tuple[float, float]:
    """``(start, end)`` of control window *k*.

    Windows are ``control_period`` wide; the last one ends at exactly
    ``duration``.  ``ceil(duration / cp) · cp`` falls an ulp short of
    ``duration`` when the quotient rounds down onto an integer, and a
    final window ending there would never offer the arrivals in that
    last ulp.
    """
    end = (
        duration
        if k >= window_count(duration, control_period) - 1
        else min((k + 1) * control_period, duration)
    )
    return k * control_period, end


def build_controller(config: "ServiceConfig") -> QuasiStaticController:
    """The controller a service run gets from its config.

    Every serving path (the in-process service, each networked
    orchestrator shard) builds its controller here, so config knobs map
    to controller parameters one way only.
    """
    return QuasiStaticController(
        np.asarray(config.speeds, dtype=float),
        window=config.window,
        ewma_weight=config.ewma_weight,
        shed_threshold=config.shed_threshold,
        rho_cap=config.rho_cap,
        swap_tolerance=config.swap_tolerance,
        min_arrivals_to_shed=config.min_arrivals_to_shed,
        slo_target=config.slo_target,
        min_responses_to_shed=config.min_responses_to_shed,
        max_shed_fraction=config.max_shed_fraction,
    )


@dataclass(frozen=True)
class WindowRecord:
    """Telemetry of one control window."""

    start: float
    end: float
    offered: int
    admitted: int
    shed: int
    mean_response_time: float  # NaN when the window completed nothing
    mean_response_ratio: float
    lambda_hat: float
    rho_hat: float
    swapped: bool
    alphas: np.ndarray
    # Tail telemetry (per-window P² estimates; NaN when nothing completed).
    p50: float = float("nan")
    p99: float = float("nan")
    # Fault accounting.  In fault mode response-time stats cover jobs
    # *completed* in the window (jobs still in flight at the boundary
    # count in the window their departure lands in); the fault-free path
    # keeps its dispatch-window attribution.
    completed: int = 0
    lost: int = 0
    retried: int = 0
    bounced: int = 0
    servers_up: int = 0
    reason: str = "periodic"

    def state_dict(self) -> dict:
        """Every field, JSON-ready (the checkpoint's window record)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["alphas"] = [float(a) for a in self.alphas]
        return out

    @classmethod
    def from_state(cls, state: dict) -> "WindowRecord":
        kwargs = dict(state)
        kwargs["alphas"] = np.asarray(kwargs["alphas"], dtype=float)
        return cls(**kwargs)


#: Report scalars a checkpoint carries (the windows travel separately).
_REPORT_SCALARS = (
    "jobs_offered", "jobs_dispatched", "jobs_shed", "swaps", "resolves",
    "jobs_lost", "jobs_retried", "jobs_pending_retry", "jobs_in_flight",
    "membership_changes", "p50", "p99",
)


@dataclass
class ServiceReport:
    """Everything a service run produced, JSON-serializable."""

    config: "ServiceConfig"
    windows: list[WindowRecord] = field(default_factory=list)
    jobs_offered: int = 0
    jobs_dispatched: int = 0
    jobs_shed: int = 0
    swaps: int = 0
    resolves: int = 0
    clean_shutdown: bool = False
    # Fault accounting (all zero on a fault-free run).
    jobs_lost: int = 0
    jobs_retried: int = 0
    jobs_pending_retry: int = 0
    jobs_in_flight: int = 0
    membership_changes: int = 0
    # Lifetime response-time quantiles (streaming P²).
    p50: float = float("nan")
    p99: float = float("nan")

    @property
    def final_alphas(self) -> np.ndarray:
        if not self.windows:
            raise ValueError("no windows recorded")
        return self.windows[-1].alphas

    @property
    def loss_rate(self) -> float:
        """Fraction of offered jobs lost to failures (0 when none offered)."""
        if self.jobs_offered == 0:
            return 0.0
        return self.jobs_lost / self.jobs_offered

    @property
    def time_averaged_mrt(self) -> float:
        """Job-weighted mean response time over the whole run."""
        total_jobs = sum(w.admitted for w in self.windows)
        if total_jobs == 0:
            return float("nan")
        weighted = sum(
            w.admitted * w.mean_response_time
            for w in self.windows
            if w.admitted > 0
        )
        return weighted / total_jobs

    def as_dict(self) -> dict:
        windows = []
        for w in self.windows:
            row = w.state_dict()
            del row["alphas"]
            windows.append(row)
        return {
            "speeds": list(self.config.speeds),
            "duration": self.config.duration,
            "control_period": self.config.control_period,
            "jobs_offered": self.jobs_offered,
            "jobs_dispatched": self.jobs_dispatched,
            "jobs_shed": self.jobs_shed,
            "jobs_lost": self.jobs_lost,
            "jobs_retried": self.jobs_retried,
            "jobs_pending_retry": self.jobs_pending_retry,
            "jobs_in_flight": self.jobs_in_flight,
            "loss_rate": self.loss_rate,
            "membership_changes": self.membership_changes,
            "swaps": self.swaps,
            "resolves": self.resolves,
            "clean_shutdown": self.clean_shutdown,
            "time_averaged_mrt": self.time_averaged_mrt,
            "p50": self.p50,
            "p99": self.p99,
            "final_alphas": [float(a) for a in self.final_alphas]
            if self.windows
            else [],
            "windows": windows,
        }

    def state_dict(self) -> dict:
        """The report so far, as a checkpoint carries it."""
        out = {name: getattr(self, name) for name in _REPORT_SCALARS}
        out["windows"] = [w.state_dict() for w in self.windows]
        return out

    @classmethod
    def from_state(cls, config: "ServiceConfig", state: dict) -> "ServiceReport":
        report = cls(config=config)
        for name in _REPORT_SCALARS:
            setattr(report, name, state[name])
        report.windows = [WindowRecord.from_state(w) for w in state["windows"]]
        return report


class WindowStep:
    """The sans-IO control window: admit → (caller's replay) → fold → close.

    Parameters
    ----------
    controller:
        Defaults to :func:`build_controller` over *config*.
    reference:
        Dispatch with the live per-job Algorithm 2 scan
        (:class:`RoundRobinDispatcher`) instead of memoized sequence
        slices; both walk the identical sequence.
    """

    def __init__(
        self,
        config: "ServiceConfig",
        controller: QuasiStaticController | None = None,
        *,
        reference: bool = False,
    ):
        self.config = config
        self.controller = controller or build_controller(config)
        self.reference = bool(reference)
        self.gate = AdmissionGate()
        self.dispatcher = self.new_dispatcher()
        self.dispatcher.reset(self.controller.alphas)
        self.report = ServiceReport(config=config)

    def new_dispatcher(self):
        """A fresh (unreset) dispatcher of this step's kind."""
        return RoundRobinDispatcher() if self.reference else SequenceRoundRobin()

    def admit(
        self, times: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observe the window's offered arrivals; return the admitted ones.

        The estimator sees the *offered* stream — shed jobs included —
        because sizing must track demand, not what survived the
        previous shedding decision.  The shed fraction applied here was
        decided at the last boundary.
        """
        controller = self.controller
        controller.observe_arrivals(times, sizes)
        mask = self.gate.admit_mask(times.size, 1.0 - controller.shed_fraction)
        if mask.all():
            # The fault-free default: nothing shed, no fancy-index copy.
            adm_times, adm_sizes = times, sizes
        else:
            adm_times, adm_sizes = times[mask], sizes[mask]
        counters.inc("service.jobs_dispatched", value=int(adm_times.size))
        shed = int(times.size - adm_times.size)
        if shed:
            counters.inc("service.jobs_shed", value=shed)
        return adm_times, adm_sizes

    def fold(
        self,
        witnesses: np.ndarray,
        offsets,
        response: np.ndarray,
        sizes: np.ndarray,
        *,
        sequential: bool = False,
    ) -> tuple[float, float]:
        """Feed one window's completions back; their mean response/ratio.

        ``witnesses`` are the completions' speed witnesses
        (``size / service_time``) grouped by server — server ``s`` owns
        ``[offsets[s], offsets[s+1])`` in its completion order.
        ``response`` and ``sizes`` are the same completions' response
        times and sizes in the order the P² quantiles should see them.

        The means are numpy's pairwise sums, so reduction order is part
        of the result; ``sequential=True`` sums left to right instead
        (the fault-mode window's completion accounting).  NaN for an
        empty window, which folds nothing.
        """
        n = int(response.size)
        if n == 0:
            return float("nan"), float("nan")
        self.controller.observe_services_grouped(witnesses, offsets, response)
        ratios = ckernel.arena().f64("loop.ratio", n)
        np.divide(response, sizes, out=ratios)
        if sequential:
            return (
                float(np.add.accumulate(response)[-1]) / n,
                float(np.add.accumulate(ratios)[-1]) / n,
            )
        return float(response.mean()), float(ratios.mean())

    def close(
        self,
        start: float,
        end: float,
        *,
        offered: int,
        admitted: int,
        mrt: float,
        ratio: float,
        completed: int,
        servers_up: int,
        lost: int = 0,
        retried: int = 0,
        bounced: int = 0,
    ) -> ControlDecision:
        """Re-solve at the boundary, swap, and record the window.

        Drain-and-switch: the allocation may change only here, between
        windows, and a swap restarts the dispatch sequence.
        """
        controller = self.controller
        decision = controller.resolve(end)
        if decision.swapped:
            self.dispatcher = self.new_dispatcher()
            self.dispatcher.reset(decision.alphas)
        estimate = decision.estimate
        shed = offered - admitted
        report = self.report
        report.windows.append(
            WindowRecord(
                start=start,
                end=end,
                offered=offered,
                admitted=admitted,
                shed=shed,
                mean_response_time=mrt,
                mean_response_ratio=ratio,
                lambda_hat=(estimate.arrival_rate if estimate else float("nan")),
                rho_hat=(estimate.utilization if estimate else float("nan")),
                swapped=decision.swapped,
                alphas=decision.alphas,
                p50=decision.window_p50,
                p99=decision.window_p99,
                completed=completed,
                lost=lost,
                retried=retried,
                bounced=bounced,
                servers_up=servers_up,
                reason=decision.reason,
            )
        )
        report.jobs_offered += offered
        report.jobs_dispatched += admitted
        report.jobs_shed += shed
        report.jobs_lost += lost
        report.jobs_retried += retried
        report.swaps = controller.swaps
        report.resolves = controller.resolves
        report.membership_changes = controller.membership_events
        report.p50 = controller.p50.value
        report.p99 = controller.p99.value
        return decision
