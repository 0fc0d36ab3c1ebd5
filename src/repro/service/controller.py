"""The quasi-static control loop: estimate → re-solve → swap → shed.

The paper computes one static allocation from known (λ, μ, s) and
argues (Section 5.4) that frequent recomputation is unnecessary.  The
service relaxes "known" to "estimated": every control period the
controller snapshots the online estimators
(:class:`~repro.metrics.online.OnlineWorkloadEstimator`), re-solves
Theorems 1–3 over the estimated parameters with the *same* Algorithm 1
code the offline path uses, and decides whether the new allocation
differs enough to justify swapping the dispatch sequence.

Swaps happen only at control-window boundaries (drain-and-switch): the
outgoing round-robin sequence finishes its window intact, so
Algorithm 2's interleaving invariant — every prefix of a sequence is
balanced — holds within each segment; no job is ever dispatched from a
half-rebuilt sequence.

Two control signals can shed load.  Legacy mode (no SLO target) thins
arrivals when the estimated utilization exceeds ``shed_threshold``,
down to the fraction that brings the admitted load back to the
threshold.  SLO mode (``slo_target`` set) re-targets the gate at the
tail: a streaming P² p99 over the *last control window's* response
times engages shedding exactly while ``p99 > slo_target``, thinning by
``1 − slo_target/p99`` — graceful degradation judged by the tail, not
the mean.  Thinning is deterministic (a fractional accumulator, not a
coin flip), so service runs replay bit-identically.

The controller doubles as the **failure detector** sink: the service
loop reports membership transitions (:meth:`mark_server_down` /
:meth:`mark_server_up`), which feed the estimator's membership mask —
so ρ̂ is offered load over *surviving* capacity — and force the next
boundary re-solve to run out-of-band over the survivors with FA_ORR
semantics (:func:`~repro.faults.aware.survivor_fractions`), bypassing
the ``swap_tolerance`` hysteresis so a membership change always swaps.

The boundary's numeric steps — snapshot, usable test, survivor re-solve,
delta and swap rule — are one compiled call (``boundary_resolve``) when
the kernel is loaded; the Python body in :meth:`QuasiStaticController._boundary`
computes the same bits otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..allocation.optimized import CUTOFF_RTOL
from ..faults.aware import survivor_fractions
from ..metrics.online import (
    _P2,
    OnlineWorkloadEstimator,
    P2Quantile,
    WorkloadEstimate,
)
from ..obs import counters
from ..obs.spans import span, tracing_enabled
from ..sim import ckernel

__all__ = ["ControlDecision", "AdmissionGate", "QuasiStaticController"]

_NO_RESPONSES = np.empty(0)


@dataclass(frozen=True)
class ControlDecision:
    """Outcome of one control period."""

    time: float
    alphas: np.ndarray
    estimate: WorkloadEstimate | None
    swapped: bool
    resolved: bool
    shed_fraction: float
    #: Why this resolve ran: ``periodic`` (plain boundary), ``membership``
    #: (failure detector forced it), or ``slo`` (tail SLO violated).
    reason: str = "periodic"
    #: Response-time quantiles over the window that just closed (NaN
    #: when nothing completed in it).
    window_p50: float = float("nan")
    window_p99: float = float("nan")


class AdmissionGate:
    """Deterministic thinning to a target admitted fraction.

    A fractional accumulator admits ⌈f·k⌉-ish jobs out of every k in a
    maximally even pattern — the load-shedding analog of the dispatch
    sequence itself.  Carrying the accumulator across windows keeps the
    admitted fraction exact in the long run.

    :meth:`admit_mask` computes the pattern as a cumulative-sum keep
    mask in one vectorized pass: job *j* is admitted when the ideal
    admitted count ``⌊acc₀ + j·f⌋`` steps up at *j*.  This is the exact
    closed form of the scalar accumulator loop (kept as
    :meth:`admit_mask_scalar` for the reference path); the two can
    differ only when an accumulated value lands within ~1e−9 of an
    integer boundary, which the pinned-fraction tests show never
    happens for the rational shed fractions the controller produces —
    and the fault-free default (``keep = 1``) short-circuits before
    either formulation runs.
    """

    def __init__(self) -> None:
        self._acc = 0.0

    def admit_mask(self, count: int, keep_fraction: float) -> np.ndarray:
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must lie in [0, 1], got {keep_fraction}")
        if keep_fraction >= 1.0:
            return np.ones(count, dtype=bool)
        if count == 0:
            return np.zeros(0, dtype=bool)
        # Ideal admitted-so-far counts; the epsilon absorbs the ~k·ulp
        # accumulation error of k·fl(f) so exact-fraction patterns (the
        # long-run exactness guarantee) survive large windows.
        cum = self._acc + np.arange(1, count + 1, dtype=float) * keep_fraction
        admitted = np.floor(cum + 1e-9)
        mask = np.diff(admitted, prepend=math.floor(self._acc + 1e-9)) > 0.5
        self._acc = float(cum[-1] - admitted[-1])
        return mask

    def admit_mask_scalar(self, count: int, keep_fraction: float) -> np.ndarray:
        """The original per-job accumulator loop (reference path)."""
        if not 0.0 <= keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must lie in [0, 1], got {keep_fraction}")
        if keep_fraction >= 1.0:
            return np.ones(count, dtype=bool)
        mask = np.empty(count, dtype=bool)
        acc = self._acc
        for j in range(count):
            acc += keep_fraction
            if acc >= 1.0 - 1e-12:
                acc -= 1.0
                mask[j] = True
            else:
                mask[j] = False
        self._acc = acc
        return mask

    def state_dict(self) -> dict:
        return {"acc": self._acc}

    def load_state(self, state: dict) -> None:
        self._acc = float(state["acc"])


class QuasiStaticController:
    """Estimator-driven re-solver for the scheduler service.

    Parameters
    ----------
    nominal_speeds:
        Speed vector the service believes before any completions are
        observed; also the solver input dimension.
    window:
        Time width of the windowed rate estimator.
    shed_threshold:
        Estimated ρ above which admission control engages (legacy mode,
        ignored when ``slo_target`` is set).
    rho_cap:
        Utilization handed to the solver is clamped here: Algorithm 1
        requires ρ < 1, and near-saturation estimates would otherwise
        make the re-solve blow up exactly when the estimate is noisiest.
    swap_tolerance:
        Minimum L∞ change in the allocation vector that triggers a
        sequence swap; smaller drifts keep the running sequence (the
        paper's own insensitivity result, Section 5.4, says small
        allocation errors cost little).  Membership changes bypass this
        hysteresis: a failed server must lose its share *now*.
    min_arrivals_to_shed:
        Arrivals that must be observed before admission control may
        engage.  The first-window rate estimate can transiently
        overshoot; dropping real jobs on a few seconds of noisy data is
        worse than serving one slow window.
    slo_target:
        Response-time p99 target.  When set, shedding is SLO-targeted:
        it engages exactly while the last window's p99 exceeds the
        target, replacing the ρ̂ threshold rule.
    min_responses_to_shed:
        Completions the window's p99 estimate must rest on before SLO
        shedding may engage (a two-sample p99 is noise, not a signal).
    max_shed_fraction:
        Ceiling on the SLO shed fraction — some trickle of admitted
        jobs must survive or the p99 estimate (and hence the gate) can
        never observe a recovery.
    """

    def __init__(
        self,
        nominal_speeds,
        *,
        window: float,
        ewma_weight: float = 0.05,
        shed_threshold: float = 0.95,
        rho_cap: float = 0.98,
        swap_tolerance: float = 0.01,
        min_arrivals_to_shed: int = 200,
        slo_target: float | None = None,
        min_responses_to_shed: int = 50,
        max_shed_fraction: float = 0.9,
    ):
        if not 0.0 < shed_threshold < 1.0:
            raise ValueError(f"shed_threshold must lie in (0, 1), got {shed_threshold}")
        if not 0.0 < rho_cap < 1.0:
            raise ValueError(f"rho_cap must lie in (0, 1), got {rho_cap}")
        if slo_target is not None and not slo_target > 0.0:
            raise ValueError(f"slo_target must be positive, got {slo_target}")
        if not 0.0 < max_shed_fraction < 1.0:
            raise ValueError(
                f"max_shed_fraction must lie in (0, 1), got {max_shed_fraction}"
            )
        # NaN would never swap, and a negative tolerance would swap (and
        # restart the dispatch sequence) at every boundary.
        if not swap_tolerance >= 0.0:
            raise ValueError(f"swap_tolerance must be >= 0, got {swap_tolerance}")
        speeds = np.asarray(nominal_speeds, dtype=float)
        self.estimator = OnlineWorkloadEstimator(
            speeds, window=window, ewma_weight=ewma_weight
        )
        self.shed_threshold = float(shed_threshold)
        self.rho_cap = float(rho_cap)
        self.swap_tolerance = float(swap_tolerance)
        self.min_arrivals_to_shed = int(min_arrivals_to_shed)
        self.slo_target = None if slo_target is None else float(slo_target)
        self.min_responses_to_shed = int(min_responses_to_shed)
        self.max_shed_fraction = float(max_shed_fraction)
        # Until the first usable estimate the best guess is the
        # capacity-proportional split — optimal at ρ → 1 and never
        # saturating for ρ < 1.
        self.alphas = speeds / speeds.sum()
        self.shed_fraction = 0.0
        self.resolves = 0
        self.swaps = 0
        # Failure-detector state: believed membership, and whether it
        # changed since the last resolve (forces an out-of-band solve).
        self.up = np.ones(speeds.size, dtype=bool)
        self._membership_dirty = False
        self.membership_events = 0
        # Response-time quantiles: lifetime (reported) and per-window
        # (drives the SLO gate, restarted at each resolve), as the four
        # P² blocks of one vector the compiled estimator step folds into.
        self._p2 = np.zeros(4 * _P2)
        self._p2_addr = self._p2.ctypes.data
        self._quantiles = tuple(
            P2Quantile(p, storage=self._p2[i * _P2 : (i + 1) * _P2])
            for i, p in enumerate((0.5, 0.99, 0.5, 0.99))
        )
        self.p50, self.p99, self._win_p50, self._win_p99 = self._quantiles
        self.responses_seen = 0

    # Delegation: the service loop feeds the controller, the controller
    # feeds the estimators.
    def observe_arrival(self, t: float, size: float) -> None:
        self.estimator.observe_arrival(t, size)

    def observe_arrivals(self, times: np.ndarray, sizes: np.ndarray) -> None:
        """Batch form of :meth:`observe_arrival` (one window at once)."""
        self.estimator.observe_arrivals(times, sizes)

    def observe_service(self, server: int, size: float, service_time: float) -> None:
        self.estimator.observe_service(server, size, service_time)

    def observe_services_grouped(
        self, witnesses: np.ndarray | None, offsets, responses=None
    ) -> None:
        """Batch form of :meth:`observe_service` (server-grouped), and
        with *responses* of :meth:`observe_response` too.

        ``witnesses`` are the window's speed witnesses grouped by
        server (``offsets``: ``nservers + 1`` bounds, or None for no
        witnesses); ``responses`` the same completions' response times
        in the order the quantiles should see them.  One compiled call
        (``est_completions``) folds both — the speed EWMAs and the four
        P² sets, warm-up included — leaving the state the per-job calls
        leave.  Without the kernel, the estimators' batch forms run.
        """
        n = self.alphas.size
        fn = ckernel.entry("completions")
        if fn is None:
            if offsets is not None:
                self.estimator.observe_services_grouped(witnesses, offsets)
            if responses is not None and responses.size:
                P2Quantile.update_many(self._quantiles, responses)
                self.responses_seen += int(responses.size)
            return
        if offsets is not None:
            offsets = np.ascontiguousarray(offsets, np.int64)
            witnesses = np.ascontiguousarray(witnesses, np.float64)
        if responses is None:
            responses = _NO_RESPONSES
        else:
            responses = np.ascontiguousarray(responses, np.float64)
        if (offsets is not None and offsets.shape != (n + 1,)) or not (
            ckernel.est_completions_c(
                fn, self.estimator._addr, witnesses, offsets, n,
                self._p2_addr, len(self._quantiles), responses,
            )
        ):
            raise ValueError(
                f"offsets must be {n + 1} non-decreasing bounds into "
                f"{witnesses.size} witnesses, got {offsets.tolist()}"
            )
        self.responses_seen += int(responses.size)

    def observe_response(self, response_time: float) -> None:
        """Fold one completed job's response time into the quantiles."""
        for q in self._quantiles:
            q.update(response_time)
        self.responses_seen += 1

    def observe_responses(self, response_times: np.ndarray) -> None:
        """Batch form of :meth:`observe_response` (one window at once)."""
        if response_times.size:
            self.observe_services_grouped(None, None, response_times)

    # -- failure detector ----------------------------------------------

    def mark_server_down(self, server: int, now: float) -> None:
        """Health signal: *server* stopped responding at *now*."""
        if self.up[server]:
            self.up[server] = False
            self._membership_dirty = True
            self.membership_events += 1
            self.estimator.set_membership(self.up)
            counters.inc("service.membership_events", kind="down")

    def mark_server_up(
        self, server: int, now: float, *, fresh_estimates: bool = False
    ) -> None:
        """Health signal: *server* rejoined at *now*.

        ``fresh_estimates`` is the rejoin warm-up guard: a server that
        comes back as a *restarted process* (the networked REGISTER
        path) has no backlog and no continuity with its pre-crash
        throughput, so its speed EWMA is reset and it re-enters at its
        nominal speed until new completions arrive.  The sim-only fault
        timeline keeps the default — a repaired server there resumes
        the same machine, so its history is still informative.
        """
        if not self.up[server]:
            if fresh_estimates:
                self.estimator.speed.reset_server(server)
            self.up[server] = True
            self._membership_dirty = True
            self.membership_events += 1
            self.estimator.set_membership(self.up)
            counters.inc("service.membership_events", kind="up")

    # -- the control period --------------------------------------------

    def _close_window_quantiles(self) -> tuple[float, float, int]:
        """Read and restart the per-window response quantiles."""
        p50 = self._win_p50.value
        p99 = self._win_p99.value
        n = self._win_p99.count
        self._win_p50.reset()
        self._win_p99.reset()
        return p50, p99, n

    def resolve(self, now: float) -> ControlDecision:
        """Run one control period: snapshot, re-solve, decide swap/shed."""
        with span("service.resolve", time=float(now)) as sp:
            membership = self._membership_dirty
            self._membership_dirty = False
            win_p50, win_p99, win_n = self._close_window_quantiles()
            slo_violated = (
                self.slo_target is not None
                and math.isfinite(win_p99)
                and win_p99 > self.slo_target
                and win_n >= self.min_responses_to_shed
            )
            reason = (
                "membership" if membership else ("slo" if slo_violated else "periodic")
            )
            estimate, target, delta, swapped = self._boundary(now, membership)
            if estimate is None:
                if swapped:
                    # Out-of-band: no usable estimate, but routing to a
                    # dead server is worse than re-planning from the
                    # nominal speeds (capacity-proportional fallback).
                    self.alphas = target
                    self.swaps += 1
                    counters.inc("service.swaps")
                    self.resolves += 1
                    counters.inc("service.resolves", reason=reason)
                    sp.set(status="resolved", reason=reason, swapped=True)
                    return ControlDecision(
                        time=float(now), alphas=self.alphas, estimate=None,
                        swapped=True, resolved=True,
                        shed_fraction=self.shed_fraction, reason=reason,
                        window_p50=win_p50, window_p99=win_p99,
                    )
                sp.set(status="skipped")
                counters.inc("service.resolve_skipped")
                return ControlDecision(
                    time=float(now), alphas=self.alphas, estimate=None,
                    swapped=False, resolved=False,
                    shed_fraction=self.shed_fraction, reason=reason,
                    window_p50=win_p50, window_p99=win_p99,
                )
            rho_hat = estimate.utilization
            if swapped:
                self.alphas = target
                self.swaps += 1
                counters.inc("service.swaps")
            if self.slo_target is not None:
                if slo_violated:
                    self.shed_fraction = min(
                        self.max_shed_fraction, 1.0 - self.slo_target / win_p99
                    )
                else:
                    self.shed_fraction = 0.0
            elif (
                rho_hat > self.shed_threshold
                and self.estimator.arrivals_seen >= self.min_arrivals_to_shed
            ):
                self.shed_fraction = 1.0 - self.shed_threshold / rho_hat
            else:
                self.shed_fraction = 0.0
            self.resolves += 1
            counters.inc("service.resolves", reason=reason)
            if tracing_enabled():
                sp.set(status="resolved", reason=reason,
                       rho_hat=round(rho_hat, 6), delta=round(delta, 6),
                       swapped=swapped,
                       shed_fraction=round(self.shed_fraction, 6))
            return ControlDecision(
                time=float(now), alphas=self.alphas, estimate=estimate,
                swapped=swapped, resolved=True,
                shed_fraction=self.shed_fraction, reason=reason,
                window_p50=win_p50, window_p99=win_p99,
            )

    def _boundary(self, now: float, membership: bool):
        """The boundary's numeric steps: ``(estimate, target, delta,
        swapped)``.

        Snapshot the estimators at *now*; when the estimate is usable,
        re-solve over the survivors at ``min(ρ̂, rho_cap)`` (a total
        outage keeps the running allocation) and apply the swap rule to
        the L∞ delta.  An unusable estimate after a membership change
        re-plans out-of-band over the nominal speeds, swapping when the
        plan differs; ``estimate`` is then None, and ``target`` is None
        when nothing is re-planned.  ``target`` is a fresh vector
        whenever ``swapped``.  One compiled call (``boundary_resolve``)
        when the kernel is loaded, with the Python body's bits.
        """
        est = self.estimator
        fn = ckernel.entry("boundary")
        if fn is not None:
            now = float(now)
            if math.isnan(now):
                raise ValueError("rate needs a time, got nan")
            status, out = ckernel.boundary_resolve_c(
                fn, est._addr, est.windowed_rate._addr,
                est.speed._nominal_addr, est._up_addr, self.up, now,
                membership, self.rho_cap, self.swap_tolerance,
                CUTOFF_RTOL, self.alphas,
            )
            if status >= 0:
                n = self.alphas.size
                swapped = status in (2, 3)
                target = out[4 + 2 * n:4 + 3 * n].copy() if swapped else None
                if status in (0, 3):
                    return None, target, None, swapped
                lam, mean_size, rho = out[:3].tolist()
                estimate = WorkloadEstimate(
                    arrival_rate=lam,
                    mean_size=mean_size,
                    speeds=out[3:3 + n].copy(),
                    utilization=rho,
                    up=None if est._up is None else est._up.copy(),
                )
                return estimate, target, float(out[3 + 2 * n]), swapped
        estimate = est.snapshot(now)
        if not estimate.usable:
            if membership:
                target = survivor_fractions(est.speed.nominal, self.up, float("nan"))
                if target is not None and bool(np.any(target != self.alphas)):
                    return None, target, None, True
            return None, None, None, False
        target = survivor_fractions(
            estimate.speeds, self.up, min(estimate.utilization, self.rho_cap)
        )
        if target is None:  # total outage: keep the last allocation
            target = self.alphas
        delta = float(np.abs(target - self.alphas).max())
        # Membership changes bypass the hysteresis: a survivors-only
        # plan must take effect at this boundary, not once estimator
        # drift happens to push the delta over the tolerance.
        swapped = delta > self.swap_tolerance or (membership and delta > 0.0)
        return estimate, target, delta, swapped

    # -- crash-safe checkpointing --------------------------------------

    def state_dict(self) -> dict:
        return {
            "alphas": [float(a) for a in self.alphas],
            "shed_fraction": self.shed_fraction,
            "resolves": self.resolves,
            "swaps": self.swaps,
            "up": [bool(u) for u in self.up],
            "membership_dirty": self._membership_dirty,
            "membership_events": self.membership_events,
            "estimator": self.estimator.state_dict(),
            "p50": self.p50.state_dict(),
            "p99": self.p99.state_dict(),
            "win_p50": self._win_p50.state_dict(),
            "win_p99": self._win_p99.state_dict(),
            "responses_seen": self.responses_seen,
        }

    def load_state(self, state: dict) -> None:
        # Every shape is checked before anything is written: a mask of
        # the wrong length would have the compiled boundary read past
        # its end.
        alphas = np.asarray(state["alphas"], dtype=float)
        if alphas.shape != self.alphas.shape:
            raise ValueError(
                f"controller state has {alphas.size} servers, "
                f"expected {self.alphas.size}"
            )
        up = np.asarray(state["up"], dtype=bool)
        if up.shape != self.alphas.shape:
            raise ValueError(
                f"controller state field 'up' has {up.size} entries, "
                f"expected {self.alphas.size}"
            )
        self.estimator.load_state(state["estimator"])
        self.alphas = alphas
        self.shed_fraction = float(state["shed_fraction"])
        self.resolves = int(state["resolves"])
        self.swaps = int(state["swaps"])
        self.up = up
        self._membership_dirty = bool(state["membership_dirty"])
        self.membership_events = int(state["membership_events"])
        self.p50.load_state(state["p50"])
        self.p99.load_state(state["p99"])
        self._win_p50.load_state(state["win_p50"])
        self._win_p99.load_state(state["win_p99"])
        self.responses_seen = int(state["responses_seen"])
