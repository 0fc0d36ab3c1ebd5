"""High-level evaluation API: policy × configuration → replicated metrics.

This is the library's main entry point.  One call runs the paper's
protocol: R independent replications with distinct random streams, each
collecting statistics only after the warm-up period, summarized with
confidence intervals per metric.

Static policies under the PS and FCFS disciplines are routed to the
vectorized fast path automatically (identical statistics, several times
faster); Dynamic Least-Load and the finite-quantum discipline go through
the event engine.  Every evaluator — serial, precision-driven, cell and
grid — folds per-replication outcome tuples through
:func:`summarize_outcomes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    run_cell,
    run_simulation,
    run_static_simulation,
)
from ..sim.streams import StreamPool
from .policies import SchedulingPolicy, get_policy

__all__ = [
    "PolicyEvaluation",
    "CellEvaluation",
    "evaluate_policy",
    "evaluate_policy_to_precision",
    "evaluate_cell",
    "evaluate_cell_to_precision",
    "run_policy_once",
    "summarize_outcomes",
]


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


#: Metric names tracked per replication, in outcome-tuple order (see
#: :func:`_result_outcome`).
_TRACKED_METRICS = ("mean_response_time", "mean_response_ratio", "fairness")


def _check_metric(metric: str) -> int:
    """Outcome-tuple index of *metric*; ``KeyError`` naming the choices."""
    try:
        return _TRACKED_METRICS.index(metric)
    except ValueError:
        raise KeyError(
            f"unknown metric {metric!r}; expected one of {sorted(_TRACKED_METRICS)}"
        ) from None


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


def _result_outcome(result: SimulationResults) -> tuple:
    """The per-replication outcome tuple stored in caches/checkpoints."""
    return (
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
    """Fold per-replication outcome tuples (in seed order) into a
    :class:`PolicyEvaluation` — the one fold every evaluator uses, so
    serial, cached, cell-batched and parallel summaries are
    bit-identical.  ``loss_rate`` is summarized on fault-enabled
    configs only."""
    outcomes = list(outcomes)
    times = [o[0] for o in outcomes]
    ratios = [o[1] for o in outcomes]
    fairs = [o[2] for o in outcomes]
    jobs = [o[3] for o in outcomes]
    fractions = np.zeros(config.n)
    for o in outcomes:
        fractions += o[4]
    loss = None
    if config.faults is not None and config.faults.enabled:
        loss = summarize_replications(
            [o[5] if len(o) > 5 else 0.0 for o in outcomes], confidence
        )
    return PolicyEvaluation(
        policy_name=policy_name,
        config=config,
        mean_response_time=summarize_replications(times, confidence),
        mean_response_ratio=summarize_replications(ratios, confidence),
        fairness=summarize_replications(fairs, confidence),
        dispatch_fractions=fractions / len(outcomes),
        replications=len(outcomes),
        jobs_per_replication=float(np.mean(jobs)),
        loss_rate=loss,
    )


def evaluate_policy(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    replications: int = 10,
    base_seed: int = 0,
    confidence: float = 0.95,
    force_engine: bool = False,
) -> PolicyEvaluation:
    """Replicate :func:`run_policy_once` and summarize the paper metrics."""
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    outcomes = [
        _result_outcome(
            run_policy_once(config, policy, seed=seed, force_engine=force_engine)
        )
        for seed in replication_seeds(base_seed, replications)
    ]
    return summarize_outcomes(policy.name, config, outcomes, confidence=confidence)


def evaluate_policy_to_precision(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    target_relative_half_width: float = 0.05,
    metric: str = "mean_response_ratio",
    min_replications: int = 3,
    max_replications: int = 50,
    base_seed: int = 0,
    confidence: float = 0.95,
    cache=None,
) -> PolicyEvaluation:
    """Sequential replication: run until the chosen metric's CI is tight.

    Adds replications one at a time (reusing the deterministic
    per-replication seeds, so results are a strict extension of a fixed
    ``evaluate_policy`` call) until the confidence interval's relative
    half-width drops below the target or ``max_replications`` is hit.

    With a :class:`~repro.core.cache.ReplicationCache`, every completed
    replication is looked up before it is simulated and stored after —
    so tightening the target on a later call (or re-running after an
    interruption) extends the earlier run instead of repeating it.

    The heavy-load points of Figures 5/6 are exactly where a fixed
    replication count under-delivers; this is the data-driven version
    of the replication boost those experiments apply.
    """
    if not 0.0 < target_relative_half_width:
        raise ValueError(
            f"target half-width must be positive, got {target_relative_half_width}"
        )
    if not 1 <= min_replications <= max_replications:
        raise ValueError(
            f"need 1 <= min_replications <= max_replications, got "
            f"{min_replications}/{max_replications}"
        )
    index = _check_metric(metric)
    outcomes = []
    for seed in replication_seeds(base_seed, max_replications):
        # Cache entries are keyed like the grid executor's (registry
        # policies carry no estimation error, so keys coincide and the
        # two paths share entries).
        key = (
            cache.task_key(config, policy.name, None, seed)
            if cache is not None
            else None
        )
        outcome = cache.get(key) if key is not None else None
        if outcome is None:
            outcome = _result_outcome(run_policy_once(config, policy, seed=seed))
            if key is not None:
                cache.put(key, outcome)
        outcomes.append(outcome)
        if len(outcomes) < min_replications:
            continue
        summary = summarize_replications([o[index] for o in outcomes], confidence)
        # A degenerate interval (zero variance, or NaN-poisoned inputs
        # collapsing to a flagged zero width) is final: more
        # replications of the same degenerate data can never tighten
        # it, so stop instead of burning runs to the cap.
        if summary.degenerate or (
            summary.relative_half_width <= target_relative_half_width
        ):
            break
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
    #: Stage-1 stream materializations served from the pool (one miss
    #: per replication regardless of policy count when fully batched).
    stream_misses: int = field(default=0, compare=False)

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


def _resolve_policies(policies) -> list[SchedulingPolicy]:
    resolved = [get_policy(p) if isinstance(p, str) else p for p in policies]
    if not resolved:
        raise ValueError("need at least one policy")
    names = [p.name for p in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate policy names in {names}")
    return resolved


def _cell_fast_indices(config: SimulationConfig, policies) -> set[int]:
    """Policy indices eligible for the batched static fast path."""
    return {pi for pi, p in enumerate(policies) if _static_fast(config, p)}


def _run_cell_outcomes(
    config: SimulationConfig,
    policies,
    seeds,
    reps,
    pool: StreamPool,
    outcomes: list[list[tuple]],
) -> None:
    """Append replications *reps* of every policy to ``outcomes[pi]``.

    Every eligible member goes through one batched :func:`run_cell`
    call (replications share the round-robin sequence memo and the
    per-call setup); the rest run :func:`run_policy_once` member by
    member.  The seeds are the same either way.
    """
    fast = _cell_fast_indices(config, policies)
    members = [(pi, r) for r in reps for pi in sorted(fast)]
    batched = (
        run_cell(config, policies, seeds, pool=pool, members=members)
        if members
        else {}
    )
    for r in reps:
        for pi, policy in enumerate(policies):
            result = batched.get((pi, r))
            if result is None:
                result = run_policy_once(config, policy, seed=seeds[r])
            outcomes[pi].append(_result_outcome(result))


def _summarize_cell(
    config: SimulationConfig,
    policies,
    outcomes: list[list[tuple]],
    confidence: float,
    stream_misses: int,
) -> CellEvaluation:
    evaluations: dict[str, PolicyEvaluation] = {}
    samples: dict[str, dict[str, tuple[float, ...]]] = {}
    for policy, outs in zip(policies, outcomes):
        evaluations[policy.name] = summarize_outcomes(
            policy.name, config, outs, confidence=confidence
        )
        samples[policy.name] = {
            m: tuple(o[i] for o in outs) for i, m in enumerate(_TRACKED_METRICS)
        }
    return CellEvaluation(
        config=config,
        evaluations=evaluations,
        samples=samples,
        replications=len(outcomes[0]),
        confidence=confidence,
        stream_misses=stream_misses,
    )


def evaluate_cell(
    config: SimulationConfig,
    policies,
    *,
    replications: int = 10,
    base_seed: int = 0,
    confidence: float = 0.95,
) -> CellEvaluation:
    """Evaluate several policies on one configuration with shared streams.

    Per policy this is bit-identical to :func:`evaluate_policy` with the
    same arguments; across policies each replication's arrival and size
    arrays are materialized once and shared (common random numbers make
    them equal anyway), so the cell costs one stage-1 sampling pass per
    replication instead of one per (policy, replication).  Policies that
    need the event engine (dynamic feedback, exotic disciplines) drop
    out of the batch member-by-member and still evaluate correctly.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    policies = _resolve_policies(policies)
    pool = StreamPool()
    outcomes: list[list[tuple]] = [[] for _ in policies]
    _run_cell_outcomes(
        config, policies, replication_seeds(base_seed, replications),
        range(replications), pool, outcomes,
    )
    return _summarize_cell(config, policies, outcomes, confidence, pool.misses)


def evaluate_cell_to_precision(
    config: SimulationConfig,
    policies,
    *,
    target_relative_half_width: float = 0.05,
    metric: str = "mean_response_ratio",
    paired_baseline: str | None = None,
    min_replications: int = 3,
    max_replications: int = 50,
    base_seed: int = 0,
    confidence: float = 0.95,
) -> CellEvaluation:
    """Add replications to a cell until its confidence intervals are tight.

    Two stopping modes:

    * **absolute** (default) — stop when every policy's ``metric``
      interval has relative half-width ≤ the target (each policy judged
      like :func:`evaluate_policy_to_precision`);
    * **paired** (``paired_baseline`` names one of the policies) — stop
      when every *other* policy's paired-difference interval against the
      baseline has half-width ≤ target × |baseline mean|.  Differences
      under CRN can sit near zero, so the target is scaled by the
      baseline's metric mean rather than by the difference itself.

    Replications extend deterministically (seed *r* is always the same),
    and each one is sampled once and shared across all policies, so the
    paired mode reaches a verdict in far fewer replications than
    independent intervals would need.
    """
    if not 0.0 < target_relative_half_width:
        raise ValueError(
            f"target half-width must be positive, got {target_relative_half_width}"
        )
    if not 1 <= min_replications <= max_replications:
        raise ValueError(
            f"need 1 <= min_replications <= max_replications, got "
            f"{min_replications}/{max_replications}"
        )
    index = _check_metric(metric)
    policies = _resolve_policies(policies)
    names = [p.name for p in policies]
    if paired_baseline is not None and paired_baseline not in names:
        raise KeyError(
            f"paired baseline {paired_baseline!r} not among policies {names}"
        )
    seeds = replication_seeds(base_seed, max_replications)
    pool = StreamPool()
    outcomes: list[list[tuple]] = [[] for _ in policies]

    def values(pi: int) -> list[float]:
        return [o[index] for o in outcomes[pi]]

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
        bi = names.index(paired_baseline)
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
        _run_cell_outcomes(config, policies, seeds, [r], pool, outcomes)
        if r + 1 >= min_replications and converged():
            break
    return _summarize_cell(config, policies, outcomes, confidence, pool.misses)
