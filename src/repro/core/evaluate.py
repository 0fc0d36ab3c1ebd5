"""High-level evaluation API: policy × configuration → replicated metrics.

This is the library's main entry point.  One call runs the paper's
protocol: R independent replications with distinct random streams, each
collecting statistics only after the warm-up period, summarized with
confidence intervals per metric.

Static policies under the PS and FCFS disciplines are routed to the
vectorized fast path automatically (identical statistics, several times
faster); Dynamic Least-Load and the finite-quantum discipline go through
the event engine.  Every evaluator — serial, precision-driven, cell and
grid — folds per-replication :class:`Outcome` records through
:func:`summarize_outcomes`.  :func:`evaluate_cell` runs a set of
registry policies on one configuration as one cell of the grid
executor, in process or over its shared worker pool; one precision
loop, :func:`evaluate_cell_to_precision`, serves a single policy (a
one-policy cell) and a whole cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..metrics import (
    PairedSummary,
    ReplicationSummary,
    summarize_paired,
    summarize_replications,
)
from ..obs import counters
from ..rng import replication_seeds, substream
from ..sim import (
    SimulationConfig,
    SimulationResults,
    run_simulation,
    run_static_simulation,
)
from ..sim.streams import StreamPool
from .policies import SchedulingPolicy, get_policy

__all__ = [
    "Outcome",
    "PolicyEvaluation",
    "CellEvaluation",
    "evaluate_policy",
    "evaluate_cell",
    "evaluate_cell_to_precision",
    "run_policy_once",
    "summarize_outcomes",
]

class Outcome(NamedTuple):
    """One replication's result: what caches, checkpoints and grid
    workers store, and what :func:`summarize_outcomes` folds.

    :meth:`to_json`/:meth:`from_json` are the one on-disk encoding, used
    by both the replication cache and the sweep checkpoint.  Floats
    round-trip bit-exactly (shortest-repr JSON).
    """

    mean_response_time: float
    mean_response_ratio: float
    fairness: float
    jobs: int
    dispatch_fractions: np.ndarray
    #: Post-warm-up job-loss rate; 0.0 for fault-free runs and for
    #: records written before fault injection existed.
    loss_rate: float = 0.0

    def to_json(self) -> dict:
        """JSON-ready fields, in the stored key order."""
        return {
            "mean_response_time": float(self.mean_response_time),
            "mean_response_ratio": float(self.mean_response_ratio),
            "fairness": float(self.fairness),
            "jobs": int(self.jobs),
            "dispatch_fractions": [
                float(x) for x in np.asarray(self.dispatch_fractions)
            ],
            "loss_rate": float(self.loss_rate),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Outcome":
        """Decode :meth:`to_json` output; raises ``KeyError``,
        ``TypeError`` or ``ValueError`` on a malformed record."""
        return cls(
            float(data["mean_response_time"]),
            float(data["mean_response_ratio"]),
            float(data["fairness"]),
            int(data["jobs"]),
            np.asarray(data["dispatch_fractions"], dtype=float),
            float(data.get("loss_rate", 0.0)),
        )

    def fits(self, n: int) -> bool:
        """Whether the dispatch fractions cover exactly *n* computers."""
        fractions = self.dispatch_fractions
        return np.ndim(fractions) == 1 and len(fractions) == n


@dataclass(frozen=True)
class PolicyEvaluation:
    """Replication-averaged metrics for one (policy, configuration) pair."""

    policy_name: str
    config: SimulationConfig
    mean_response_time: ReplicationSummary
    mean_response_ratio: ReplicationSummary
    fairness: ReplicationSummary
    #: Replication-averaged post-warm-up dispatch fraction per computer.
    dispatch_fractions: np.ndarray
    replications: int
    jobs_per_replication: float
    #: Post-warm-up job-loss rate across replications; only populated by
    #: fault-injection sweeps (None on the classic paper experiments).
    loss_rate: "ReplicationSummary | None" = None

    def metric(self, name: str) -> ReplicationSummary:
        """Look up one of the paper's three metrics (or loss_rate) by name."""
        metrics = {
            "mean_response_time": self.mean_response_time,
            "mean_response_ratio": self.mean_response_ratio,
            "fairness": self.fairness,
        }
        if self.loss_rate is not None:
            metrics["loss_rate"] = self.loss_rate
        try:
            return metrics[name]
        except KeyError:
            raise KeyError(
                f"unknown metric {name!r}; expected one of {sorted(metrics)}"
            ) from None


#: :class:`Outcome` fields kept per replication in cell ``samples``.
_TRACKED_METRICS = ("mean_response_time", "mean_response_ratio", "fairness")


def _check_metric(metric: str) -> None:
    """``KeyError`` naming the choices unless *metric* is tracked."""
    if metric not in _TRACKED_METRICS:
        raise KeyError(
            f"unknown metric {metric!r}; expected one of {sorted(_TRACKED_METRICS)}"
        )


def _static_fast(config: SimulationConfig, policy) -> bool:
    """Whether *policy* on *config* replays on the static fast path."""
    return (
        policy.is_static
        and config.discipline in ("ps", "fcfs")
        and (config.faults is None or not config.faults.enabled)
    )


def run_policy_once(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    seed: int | np.random.SeedSequence = 0,
    record_trace: bool = False,
    force_engine: bool = False,
) -> SimulationResults:
    """One replication of *policy* on *config*.

    The dispatcher's random stream is derived from *seed* under the
    "dispatch" role, so two policies evaluated with the same seed see
    identical arrival/size streams (common random numbers).
    """
    network = config.network()
    alphas = policy.fractions(network)
    dispatcher = policy.build_dispatcher(config.speeds, substream(seed, "dispatch"))
    if not force_engine and dispatcher.is_static and _static_fast(config, policy):
        result = run_static_simulation(
            config, dispatcher, alphas, seed=seed, record_trace=record_trace
        )
    else:
        result = run_simulation(
            config, dispatcher, alphas, seed=seed, record_trace=record_trace
        )
    counters.record_run(result)
    return result


def _result_outcome(result: SimulationResults) -> Outcome:
    """The :class:`Outcome` of one simulated replication."""
    return Outcome(
        result.metrics.mean_response_time,
        result.metrics.mean_response_ratio,
        result.metrics.fairness,
        result.metrics.jobs,
        result.dispatch_fractions,
        result.loss_rate,
    )


def summarize_outcomes(
    policy_name: str,
    config: SimulationConfig,
    outcomes,
    *,
    confidence: float = 0.95,
) -> PolicyEvaluation:
    """Fold per-replication :class:`Outcome` records (in seed order)
    into a :class:`PolicyEvaluation` — the one fold every evaluator
    uses, so serial, cached, cell-batched and parallel summaries are
    bit-identical.  ``loss_rate`` is summarized on fault-enabled
    configs only."""
    outcomes = list(outcomes)
    fractions = np.zeros(config.n)
    for o in outcomes:
        fractions += o.dispatch_fractions
    loss = None
    if config.faults is not None and config.faults.enabled:
        loss = summarize_replications([o.loss_rate for o in outcomes], confidence)

    def summary(metric: str) -> ReplicationSummary:
        return summarize_replications(
            [getattr(o, metric) for o in outcomes], confidence
        )

    return PolicyEvaluation(
        policy_name=policy_name,
        config=config,
        mean_response_time=summary("mean_response_time"),
        mean_response_ratio=summary("mean_response_ratio"),
        fairness=summary("fairness"),
        dispatch_fractions=fractions / len(outcomes),
        replications=len(outcomes),
        jobs_per_replication=float(np.mean([o.jobs for o in outcomes])),
        loss_rate=loss,
    )


def evaluate_policy(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    replications: int = 10,
    base_seed: int = 0,
    confidence: float = 0.95,
) -> PolicyEvaluation:
    """Replicate :func:`run_policy_once` and summarize the paper metrics."""
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    outcomes = [
        _result_outcome(run_policy_once(config, policy, seed=seed))
        for seed in replication_seeds(base_seed, replications)
    ]
    return summarize_outcomes(policy.name, config, outcomes, confidence=confidence)


@dataclass(frozen=True)
class CellEvaluation:
    """Every policy of one sweep cell evaluated on shared streams.

    Beyond one :class:`PolicyEvaluation` per policy, the raw
    per-replication metric values are kept (``samples``) so policies can
    be compared with paired statistics: replication *r* of every policy
    saw the same arrival and size streams, making the per-replication
    differences matched pairs.
    """

    config: SimulationConfig
    evaluations: dict[str, PolicyEvaluation]
    #: policy name → metric name → per-replication values (seed order).
    samples: dict[str, dict[str, tuple[float, ...]]]
    replications: int
    confidence: float = 0.95

    @property
    def policy_names(self) -> list[str]:
        return list(self.evaluations)

    def __getitem__(self, name: str) -> PolicyEvaluation:
        try:
            return self.evaluations[name]
        except KeyError:
            raise KeyError(
                f"unknown policy {name!r}; have {self.policy_names}"
            ) from None

    def paired(
        self,
        a: str,
        b: str,
        metric: str = "mean_response_ratio",
        confidence: float | None = None,
    ) -> PairedSummary:
        """Paired-difference summary of ``metric`` for policies a − b."""
        for name in (a, b):
            if name not in self.samples:
                raise KeyError(
                    f"unknown policy {name!r}; have {self.policy_names}"
                )
        _check_metric(metric)
        return summarize_paired(
            self.samples[a][metric],
            self.samples[b][metric],
            confidence if confidence is not None else self.confidence,
            labels=(a, b),
        )


def _resolve_policies(names) -> list[SchedulingPolicy]:
    """The registry policies *names* resolve to, in order.

    Raises ``KeyError`` on an unknown name, and ``ValueError`` on an
    empty list or on two names of one policy (the registry ignores
    case), before anything runs.
    """
    resolved = [get_policy(name) for name in names]
    if not resolved:
        raise ValueError("need at least one policy")
    labels = [p.name for p in resolved]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate policy names in {labels}")
    return resolved


def _cell_fast_indices(config: SimulationConfig, policies) -> set[int]:
    """Policy indices eligible for the batched static fast path."""
    return {pi for pi, p in enumerate(policies) if _static_fast(config, p)}


def _summarize_cell(
    config: SimulationConfig,
    policies,
    outcomes: list[list[Outcome]],
    confidence: float,
) -> CellEvaluation:
    evaluations: dict[str, PolicyEvaluation] = {}
    samples: dict[str, dict[str, tuple[float, ...]]] = {}
    for policy, outs in zip(policies, outcomes):
        evaluations[policy.name] = summarize_outcomes(
            policy.name, config, outs, confidence=confidence
        )
        samples[policy.name] = {
            m: tuple(getattr(o, m) for o in outs) for m in _TRACKED_METRICS
        }
    return CellEvaluation(
        config=config,
        evaluations=evaluations,
        samples=samples,
        replications=len(outcomes[0]),
        confidence=confidence,
    )


def evaluate_cell(
    config: SimulationConfig,
    names,
    *,
    replications: int = 10,
    base_seed: int = 0,
    confidence: float = 0.95,
    n_jobs: int | str | None = None,
) -> CellEvaluation:
    """Evaluate the registry policies *names* on one configuration with
    shared streams.

    The cell is one :class:`~repro.core.executor.CellTask` run through
    :func:`~repro.core.executor.run_cell_grid`, the path sweeps take.
    Per policy this is bit-identical to :func:`evaluate_policy` with the
    same arguments, for every ``n_jobs``; across policies each
    replication's arrival and size arrays are materialized once and
    shared (common random numbers make them equal anyway), so the cell
    costs one stage-1 sampling pass per replication instead of one per
    (policy, replication).  Policies that need the event engine (dynamic
    feedback, exotic disciplines) drop out of the batch member-by-member
    and still evaluate correctly.  ``n_jobs`` resolves as
    :func:`~repro.core.executor.resolve_n_jobs` does (default: the
    ``REPRO_JOBS`` environment variable, else in process); workers
    rebuild each policy from its name.
    """
    # executor.py imports this module, so its names load on first call.
    from .executor import CellTask, run_cell_grid

    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    names = tuple(names)
    policies = _resolve_policies(names)
    task = CellTask(
        x=None,
        config=config,
        policy_names=tuple(p.name for p in policies),
        base_names=names,
        estimation_errors=(None,) * len(policies),
        seeds=tuple(replication_seeds(base_seed, replications)),
    )
    report = run_cell_grid([task], n_jobs=n_jobs)
    outcomes = [
        [report.outcomes[task.member_key(pi, r)] for r in range(replications)]
        for pi in range(len(policies))
    ]
    return _summarize_cell(config, policies, outcomes, confidence)


def evaluate_cell_to_precision(
    config: SimulationConfig,
    names,
    *,
    target_relative_half_width: float = 0.05,
    paired_baseline: str | None = None,
    min_replications: int = 3,
    max_replications: int = 50,
    base_seed: int = 0,
    confidence: float = 0.95,
) -> CellEvaluation:
    """Add replications to a cell of registry policies until its
    confidence intervals on mean response ratio are tight.

    Two stopping modes:

    * **absolute** (default) — stop when every policy's interval has
      relative half-width ≤ the target;
    * **paired** (``paired_baseline`` names one of the policies) — stop
      when every *other* policy's paired-difference interval against the
      baseline has half-width ≤ target × |baseline mean|.  Differences
      under CRN can sit near zero, so the target is scaled by the
      baseline's metric mean rather than by the difference itself.

    Replications extend deterministically (seed *r* is always the same),
    one at a time in process, and each one is sampled once and shared
    across all policies, so the paired mode reaches a verdict in far
    fewer replications than independent intervals would need.
    """
    from .executor import _run_cell_members

    if not 0.0 < target_relative_half_width:
        raise ValueError(
            f"target half-width must be positive, got {target_relative_half_width}"
        )
    if not 1 <= min_replications <= max_replications:
        raise ValueError(
            f"need 1 <= min_replications <= max_replications, got "
            f"{min_replications}/{max_replications}"
        )
    policies = _resolve_policies(names)
    labels = [p.name for p in policies]
    if paired_baseline is not None and paired_baseline not in labels:
        raise KeyError(
            f"paired baseline {paired_baseline!r} not among policies {labels}"
        )
    seeds = replication_seeds(base_seed, max_replications)
    pool = StreamPool()
    outcomes: list[list[Outcome]] = [[] for _ in policies]

    def values(pi: int) -> list[float]:
        return [o.mean_response_ratio for o in outcomes[pi]]

    def _summary_converged(summary) -> bool:
        # Degenerate intervals (n=1 guards never trigger here, but zero
        # variance and NaN-poisoned metrics do) terminate the loop:
        # their width is a flag, and repeating degenerate replications
        # would spin to max_replications without ever converging.
        return summary.degenerate or (
            summary.relative_half_width <= target_relative_half_width
        )

    def converged() -> bool:
        if paired_baseline is None:
            return all(
                _summary_converged(summarize_replications(values(pi), confidence))
                for pi in range(len(policies))
            )
        bi = labels.index(paired_baseline)
        base_values = values(bi)
        scale = abs(float(np.mean(base_values)))
        if scale == 0.0 or not np.isfinite(scale):
            # The paired target is scaled by the baseline mean; with a
            # zero or non-finite baseline the criterion is undefined
            # and can never be met — stop with what we have rather
            # than looping on NaN comparisons.
            return True
        for pi in range(len(policies)):
            if pi == bi:
                continue
            ps = summarize_paired(values(pi), base_values, confidence)
            if not (
                ps.degenerate
                or ps.half_width <= target_relative_half_width * scale
            ):
                return False
        return True

    for r in range(max_replications):
        members = [(pi, r) for pi in range(len(policies))]
        got = _run_cell_members(config, policies, seeds, members, pool)
        for (pi, _), outcome in zip(members, got):
            outcomes[pi].append(outcome)
        if r + 1 >= min_replications and converged():
            break
    return _summarize_cell(config, policies, outcomes, confidence)
