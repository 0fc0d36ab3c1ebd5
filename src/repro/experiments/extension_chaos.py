"""Chaos harness: scripted failure scenarios with asserted bounds.

Fault tolerance that is not exercised is folklore, so this experiment
*scripts* the failure modes the serving stack claims to survive and
asserts quantitative recovery bounds on each.  Every scenario is fully
deterministic — scripted event times, seeded arrival streams, no
wall-clock anywhere — so the bounds are exact regression gates, not
statistical hopes.  The CI ``chaos-smoke`` job runs the whole suite;
a violated bound raises ``RuntimeError`` and fails the build.

Scenario schema (also documented in DESIGN.md §10): a
:class:`ChaosScenario` names a seeded workload (``utilization``,
``seed``, fixed 4-server geometry), a scripted fault timeline
(``events`` — (time, kind, server) triples compiled to
:class:`~repro.faults.models.FaultEvent`), optional SLO/retry knobs,
and the bounds to assert:

* ``max_loss_rate`` — ceiling on ``jobs_lost / jobs_offered``;
* detector-to-reallocation lag ≤ 1 control period after every kill
  (the failed server's share is zero in the window the kill lands in);
* steady-state loss 0: no window starting ≥ 2 control periods after
  the last repair loses a job;
* SLO scenarios: shedding engages *only* in windows whose predecessor
  closed with p99 above target (and does engage at least once);
* crash/resume scenario: the resumed report equals the uninterrupted
  run field for field;
* net-kill scenario: a networked server stub is killed over real
  sockets mid-run; the live report must equal the in-process
  simulation byte for byte, and the forced membership resolve must
  hand survivors exactly the failure-aware optimal fractions;
* net-rejoin scenario: the killed stub restarts, re-registers, and is
  folded back into membership at a scripted window boundary — the
  rejoin resolve must restore the full-bank optimal fractions within
  one control period with the rejoined server at its *nominal* speed
  (warm-up guard), no window after the rejoin may lose a job, and the
  live kill+rejoin run must still match the simulation byte for byte.

The harness also cross-checks the ``service.jobs_lost`` /
``service.jobs_retried`` counters against the report's accounting, so
the observability layer is under the same gate as the control loop.
"""

from __future__ import annotations

import asyncio
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from ..faults.aware import survivor_fractions
from ..faults.models import FaultConfig, FaultEvent, RetryPolicy
from ..net import run_in_process, run_sockets
from ..obs import counters
from ..obs.digest import reports_identical
from ..service import (
    SchedulerService,
    ServiceCheckpoint,
    ServiceConfig,
    ServiceCrash,
    SyntheticJobSource,
)
from ..sim.arrivals import Workload
from .base import Scale
from .reporting import format_table

__all__ = [
    "ChaosScenario",
    "ChaosOutcome",
    "ChaosResult",
    "SCENARIOS",
    "run_chaos_extension",
    "format_chaos_extension",
]

SPEEDS = (1.0, 2.0, 3.0, 2.0)
CONTROL_PERIOD = 100.0


@dataclass(frozen=True)
class ChaosScenario:
    """One scripted failure drill and its asserted bounds."""

    name: str
    description: str
    duration: float
    utilization: float
    seed: int
    #: (time, kind, server) triples; kinds as in :mod:`repro.faults.models`.
    events: tuple[tuple[float, str, int], ...] = ()
    slo_target: float | None = None
    faults: FaultConfig | None = None
    max_loss_rate: float = 0.0
    #: Assert the resume round trip instead of running once.
    crash_resume: bool = False
    #: Run over the networked stack (real sockets vs in-process), with
    #: the ``down`` events scripted as server-stub connection drops.
    net_kill: bool = False
    #: Networked kill *and* repair: ``up`` events script restarted stubs
    #: that re-register for the window containing the event time.
    net_rejoin: bool = False

    def fault_events(self) -> list[FaultEvent]:
        return [FaultEvent(t, kind, srv) for t, kind, srv in self.events]

    def config(self) -> ServiceConfig:
        return ServiceConfig(
            speeds=SPEEDS,
            duration=self.duration,
            control_period=CONTROL_PERIOD,
            slo_target=self.slo_target,
            min_responses_to_shed=10,
            faults=self.faults,
        )

    def source(self) -> SyntheticJobSource:
        workload = Workload(
            total_speed=sum(SPEEDS), utilization=self.utilization
        )
        return SyntheticJobSource(workload, self.seed)


@dataclass
class ChaosOutcome:
    """What one scenario produced, plus any violated bounds."""

    scenario: ChaosScenario
    jobs_offered: int = 0
    jobs_lost: int = 0
    jobs_retried: int = 0
    loss_rate: float = 0.0
    detect_periods: float = float("nan")  # worst kill→reallocation lag
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class ChaosResult:
    outcomes: list[ChaosOutcome]

    @property
    def violations(self) -> list[str]:
        return [
            f"{o.scenario.name}: {v}" for o in self.outcomes for v in o.violations
        ]


#: The drill roster.  Geometry is fixed (not scale-dependent) so the
#: asserted bounds are exact regression gates.
SCENARIOS: tuple[ChaosScenario, ...] = (
    ChaosScenario(
        name="kill-repair",
        description="kill the fastest of 4 servers, repair after MTTR=400 s",
        duration=3000.0,
        utilization=0.7,
        seed=11,
        events=((1050.0, "down", 2), (1450.0, "up", 2)),
        faults=FaultConfig(mtbf=None, retry=RetryPolicy(base_delay=5.0)),
        max_loss_rate=0.02,
    ),
    ChaosScenario(
        name="double-kill",
        description="overlapping failures of 2 of 4 servers, staggered repair",
        duration=3200.0,
        utilization=0.6,
        seed=12,
        events=(
            (850.0, "down", 1),
            (1050.0, "down", 3),
            (1650.0, "up", 1),
            (1850.0, "up", 3),
        ),
        faults=FaultConfig(mtbf=None, retry=RetryPolicy(base_delay=5.0)),
        max_loss_rate=0.05,
    ),
    ChaosScenario(
        name="degrade-recover",
        description="fastest server runs at 1/4 speed for 800 s, then recovers",
        duration=3000.0,
        utilization=0.6,
        seed=13,
        events=((800.0, "degrade_start", 2), (1600.0, "degrade_end", 2)),
        faults=FaultConfig(degrade_factor=0.25),
        max_loss_rate=0.0,
    ),
    ChaosScenario(
        name="slo-shed",
        description="overload with a p99 target; shedding must track the SLO",
        duration=3000.0,
        utilization=0.92,
        seed=3,
        slo_target=60.0,
        max_loss_rate=0.0,
    ),
    ChaosScenario(
        name="crash-resume",
        description="crash mid-outage, resume from checkpoint, match exactly",
        duration=3000.0,
        utilization=0.7,
        seed=11,
        events=((1050.0, "down", 2), (1450.0, "up", 2)),
        faults=FaultConfig(mtbf=None, retry=RetryPolicy(base_delay=5.0)),
        max_loss_rate=0.02,
        crash_resume=True,
    ),
    ChaosScenario(
        name="net-kill",
        description="kill a socket server stub mid-run; live must match sim",
        duration=2000.0,
        utilization=0.6,
        seed=21,
        events=((1050.0, "down", 2),),
        max_loss_rate=0.05,
        net_kill=True,
    ),
    ChaosScenario(
        name="net-rejoin",
        description="kill a socket stub, restart it, fold it back in",
        duration=2000.0,
        utilization=0.6,
        seed=23,
        events=((1050.0, "down", 2), (1450.0, "up", 2)),
        max_loss_rate=0.08,
        net_rejoin=True,
    ),
)


def _check_kills(scenario: ChaosScenario, report, outcome: ChaosOutcome) -> None:
    """Detector lag and post-repair steady-state loss bounds."""
    cp = CONTROL_PERIOD
    windows = report.windows
    worst = 0.0
    for t, kind, srv in scenario.events:
        if kind != "down":
            continue
        zeroed = [w for w in windows if w.end > t and w.alphas[srv] == 0.0]
        if not zeroed:
            outcome.violations.append(
                f"server {srv} killed at {t:g} never lost its share"
            )
            continue
        lag = (zeroed[0].end - t) / cp
        worst = max(worst, lag)
        if lag > 1.0:
            outcome.violations.append(
                f"kill at {t:g}: reallocation took {lag:.2f} control periods"
            )
        # Windows span (start, end]; a kill at exactly a boundary is
        # processed by the window that ends there.
        hit = [w for w in windows if w.end >= t]
        if hit and hit[0].reason != "membership":
            outcome.violations.append(
                f"kill at {t:g}: boundary resolve reason {hit[0].reason!r}, "
                "expected 'membership'"
            )
    if any(kind == "down" for _, kind, _ in scenario.events):
        outcome.detect_periods = worst
        last_repair = max(
            (t for t, kind, _ in scenario.events if kind == "up"), default=None
        )
        if last_repair is not None:
            late_lost = sum(
                w.lost for w in windows if w.start >= last_repair + 2 * cp
            )
            if late_lost:
                outcome.violations.append(
                    f"{late_lost} jobs lost after repair steady state"
                )


def _check_degrade(report, outcome: ChaosOutcome) -> None:
    if report.membership_changes:
        outcome.violations.append(
            "degradation must not trip the membership detector"
        )
    windows = report.windows
    head = [w.mean_response_time for w in windows[:5] if w.admitted]
    tail = [w.mean_response_time for w in windows[-5:] if w.admitted]
    if head and tail:
        if float(np.mean(tail)) > 3.0 * float(np.mean(head)):
            outcome.violations.append(
                "mean response time did not recover after the episode "
                f"(head {np.mean(head):.2f} s, tail {np.mean(tail):.2f} s)"
            )


def _check_slo(scenario: ChaosScenario, report, outcome: ChaosOutcome) -> None:
    windows = report.windows
    target = scenario.slo_target
    if windows[0].shed:
        outcome.violations.append("shedding engaged before any p99 estimate")
    spurious = sum(
        1
        for prev, cur in zip(windows, windows[1:])
        if cur.shed and not (math.isfinite(prev.p99) and prev.p99 > target)
    )
    if spurious:
        outcome.violations.append(
            f"{spurious} windows shed without a preceding SLO violation"
        )
    if not any(w.shed for w in windows):
        outcome.violations.append(
            "overload scenario never engaged SLO shedding"
        )
    if not any(
        not cur.shed and math.isfinite(prev.p99) and prev.p99 <= target
        for prev, cur in zip(windows, windows[1:])
    ):
        outcome.violations.append("shedding never disengaged after recovery")


def _run_once(scenario: ChaosScenario, **kwargs):
    return SchedulerService(
        scenario.config(),
        scenario.source(),
        fault_events=scenario.fault_events() or None,
        **kwargs,
    )


def _check_crash_resume(scenario: ChaosScenario, outcome: ChaosOutcome):
    """Kill the run mid-outage, resume, and demand exact equality."""
    baseline = _run_once(scenario).run()
    fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="chaos_ck_")
    os.close(fd)
    try:
        checkpoint = ServiceCheckpoint(path)
        try:
            _run_once(
                scenario, checkpoint=checkpoint, checkpoint_every=3,
                crash_after=11,
            ).run()
            outcome.violations.append("simulated crash did not fire")
            return baseline
        except ServiceCrash:
            pass
        resumed_service = _run_once(scenario, checkpoint=checkpoint)
        state = checkpoint.load_last()
        if state is None:
            outcome.violations.append("no snapshot survived the crash")
            return baseline
        resumed_service.restore(state)
        resumed = resumed_service.run()
        if not reports_identical(baseline, resumed):
            outcome.violations.append(
                "resumed report differs from the uninterrupted run"
            )
        return resumed
    finally:
        os.unlink(path)


def _check_net_kill(scenario: ChaosScenario, outcome: ChaosOutcome):
    """Kill a server stub over real sockets; live must match simulation.

    The scripted ``down`` events become stub crash scripts: a stub dies
    at its first dispatch *after* the window preceding the event, so the
    connection drop — and hence membership detection — lands inside the
    window containing the event time on both transports.
    """
    cp = CONTROL_PERIOD
    kill = {
        srv: int(t // cp) - 1
        for t, kind, srv in scenario.events
        if kind == "down"
    }
    config = scenario.config()
    sim = run_in_process(config, scenario.source(), kill=kill)
    before = counters.snapshot()
    live = asyncio.run(run_sockets(config, scenario.source(), kill=kill))
    delta = counters.diff_since(before)
    report = live.report
    if not reports_identical(sim.report, report):
        outcome.violations.append(
            "live socket report differs from the in-process run"
        )
    # Counter hygiene for the socket leg only (the sim leg above would
    # double every ledger entry in the generic cross-check).
    got = delta.get("service.jobs_lost", 0)
    if int(got) != int(report.jobs_lost):
        outcome.violations.append(
            f"counter service.jobs_lost={got:g} disagrees with "
            f"report value {report.jobs_lost}"
        )
    # The forced membership resolve must hand survivors exactly the
    # failure-aware optimal fractions for the estimate it acted on.
    up = np.ones(len(SPEEDS), dtype=bool)
    for _, kind, srv in scenario.events:
        if kind == "down":
            up[srv] = False
    decision = next(
        (
            d
            for shard in live.decisions
            for d in shard
            if d.reason == "membership" and d.resolved
        ),
        None,
    )
    if decision is None or decision.estimate is None:
        outcome.violations.append(
            "no membership resolve with a usable estimate"
        )
    else:
        expected = survivor_fractions(
            decision.estimate.speeds,
            up,
            min(decision.estimate.utilization, config.rho_cap),
        )
        if expected is None or not np.array_equal(decision.alphas, expected):
            outcome.violations.append(
                "membership resolve alphas are not the failure-aware "
                "optimal survivor fractions"
            )
    return report


def _check_net_rejoin(scenario: ChaosScenario, outcome: ChaosOutcome):
    """Kill a stub, restart it, and assert the repair path end to end.

    ``down`` events script connection drops exactly as in
    :func:`_check_net_kill`; ``up`` events script restarted stubs that
    re-register for the window containing the event time, which the
    orchestrator folds back into membership at that window's boundary.
    Asserted on top of the generic kill bounds: the kill+rejoin run is
    byte-identical between transports, the rejoin resolve restores the
    full-bank failure-aware optimum with the rejoined server at its
    *nominal* speed (the warm-up guard discards the stale pre-crash
    estimate), and no window starting at or after the rejoin boundary
    loses a job.
    """
    cp = CONTROL_PERIOD
    kill = {
        srv: int(t // cp) - 1
        for t, kind, srv in scenario.events
        if kind == "down"
    }
    rejoin = {
        srv: int(t // cp)
        for t, kind, srv in scenario.events
        if kind == "up"
    }
    config = scenario.config()
    sim = run_in_process(config, scenario.source(), kill=kill, rejoin=rejoin)
    before = counters.snapshot()
    live = asyncio.run(
        run_sockets(config, scenario.source(), kill=kill, rejoin=rejoin)
    )
    delta = counters.diff_since(before)
    report = live.report
    if not reports_identical(sim.report, report):
        outcome.violations.append(
            "live kill+rejoin report differs from the in-process run"
        )
    for counter, expected in (
        ("service.jobs_lost", report.jobs_lost),
        ("net.server_down", len(kill)),
        ("net.server_rejoin", len(rejoin)),
    ):
        got = delta.get(counter, 0)
        if int(got) != int(expected):
            outcome.violations.append(
                f"counter {counter}={got:g} disagrees with "
                f"expected value {expected}"
            )
    # The rejoin resolve: first membership decision that hands the
    # repaired server a share again.  It must be the full-bank optimum
    # for the estimate it acted on, with the rejoined server back at
    # nominal speed, and must land within one period of the repair.
    nominal = np.asarray(SPEEDS, dtype=float)
    all_up = np.ones(len(SPEEDS), dtype=bool)
    for t, kind, srv in scenario.events:
        if kind != "up":
            continue
        decision = next(
            (
                d
                for shard in live.decisions
                for d in shard
                if d.reason == "membership" and d.resolved
                and d.alphas[srv] > 0.0
            ),
            None,
        )
        if decision is None or decision.estimate is None:
            outcome.violations.append(
                f"server {srv} rejoined but no membership resolve "
                "restored its share"
            )
            continue
        if float(decision.estimate.speeds[srv]) != float(nominal[srv]):
            outcome.violations.append(
                f"rejoined server {srv} re-entered at speed "
                f"{decision.estimate.speeds[srv]:g}, not its nominal "
                f"{nominal[srv]:g} (warm-up guard broken)"
            )
        expected = survivor_fractions(
            decision.estimate.speeds,
            all_up,
            min(decision.estimate.utilization, config.rho_cap),
        )
        if expected is None or not np.array_equal(decision.alphas, expected):
            outcome.violations.append(
                "rejoin resolve alphas are not the full-bank "
                "failure-aware optimal fractions"
            )
        restored = [
            w for w in report.windows if w.end > t and w.alphas[srv] > 0.0
        ]
        if not restored or (restored[0].end - t) / cp > 1.0:
            outcome.violations.append(
                f"rejoin at {t:g}: share not restored within one "
                "control period"
            )
    boundary = min(w * cp for w in rejoin.values())
    late_lost = sum(w.lost for w in report.windows if w.start >= boundary)
    if late_lost:
        outcome.violations.append(
            f"{late_lost} jobs lost after the rejoin boundary"
        )
    return report


def run_chaos_extension(scale: Scale | str | None = None) -> ChaosResult:
    """Run every scenario; raise ``RuntimeError`` on any violated bound.

    *scale* is accepted for registry uniformity but ignored: the drills
    use fixed short horizons so their bounds stay exact.
    """
    outcomes: list[ChaosOutcome] = []
    for scenario in SCENARIOS:
        outcome = ChaosOutcome(scenario=scenario)
        before = counters.snapshot()
        if scenario.crash_resume:
            report = _check_crash_resume(scenario, outcome)
        elif scenario.net_kill:
            report = _check_net_kill(scenario, outcome)
        elif scenario.net_rejoin:
            report = _check_net_rejoin(scenario, outcome)
        else:
            report = _run_once(scenario).run()
        delta = counters.diff_since(before)
        outcome.jobs_offered = report.jobs_offered
        outcome.jobs_lost = report.jobs_lost
        outcome.jobs_retried = report.jobs_retried
        outcome.loss_rate = report.loss_rate
        if not report.clean_shutdown:
            outcome.violations.append("run did not shut down cleanly")
        if report.loss_rate > scenario.max_loss_rate:
            outcome.violations.append(
                f"loss rate {report.loss_rate:.4f} exceeds bound "
                f"{scenario.max_loss_rate:.4f}"
            )
        _check_kills(scenario, report, outcome)
        if any(kind.startswith("degrade") for _, kind, _ in scenario.events):
            _check_degrade(report, outcome)
        if scenario.slo_target is not None:
            _check_slo(scenario, report, outcome)
        # Counter hygiene: the observability ledger must agree with the
        # report's own accounting (crash-resume and the net scenarios
        # run several services, so only the single-run scenarios are
        # cross-checked here; the net drills check their own socket leg).
        if not (scenario.crash_resume or scenario.net_kill
                or scenario.net_rejoin):
            for counter, expected in (
                ("service.jobs_lost", report.jobs_lost),
                ("service.jobs_retried", report.jobs_retried),
            ):
                got = delta.get(counter, 0)
                if int(got) != int(expected):
                    outcome.violations.append(
                        f"counter {counter}={got:g} disagrees with "
                        f"report value {expected}"
                    )
        outcomes.append(outcome)
    result = ChaosResult(outcomes)
    if result.violations:
        raise RuntimeError(
            "chaos bounds violated:\n"
            + "\n".join(f"  - {v}" for v in result.violations)
        )
    return result


def format_chaos_extension(result: ChaosResult) -> str:
    rows = []
    for o in result.outcomes:
        rows.append(
            [
                o.scenario.name,
                o.jobs_offered,
                o.jobs_lost,
                o.jobs_retried,
                f"{o.loss_rate:.4f}",
                "-" if math.isnan(o.detect_periods)
                else f"{o.detect_periods:.2f}",
                "ok" if o.ok else "FAIL",
            ]
        )
    return format_table(
        ["scenario", "offered", "lost", "retried", "loss rate",
         "detect (periods)", "bounds"],
        rows,
        title="Chaos harness: scripted failure drills, asserted bounds",
    )
