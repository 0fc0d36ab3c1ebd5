"""Parallel replication: fan independent runs across worker processes.

Replications are embarrassingly parallel (independent seeds, no shared
state), so the paper's 10-run protocol parallelizes perfectly.  This is
a thin convenience wrapper over the grid executor
(:mod:`repro.core.executor`): tasks run on the **shared** worker pool —
created lazily, reused across calls and across sweeps in one process —
instead of paying a fresh ``ProcessPoolExecutor`` spin-up per call.
The worker rebuilds the policy from its registry name inside each
process — policies carry non-picklable dispatcher factories, so custom
:class:`~repro.core.policies.SchedulingPolicy` instances must use the
serial :func:`~repro.core.evaluate.evaluate_policy` instead.

Results are **bit-identical** to the serial path: the same
per-replication seed sequence is used, only the execution order
changes, and the aggregation is order-insensitive.  The default
``base_seed`` follows the sweep harness convention
(:class:`repro.experiments.base.Scale` — 2000, the ICPP vintage), so
ad-hoc parallel evaluations and figure sweeps advertise the same
seeding scheme.
"""

from __future__ import annotations

from ..rng import replication_seeds
from ..sim.config import SimulationConfig
from .cache import ReplicationCache
from .evaluate import PolicyEvaluation, summarize_outcomes
from .executor import ReplicationTask, run_replication_grid
from .policies import get_policy

__all__ = ["evaluate_policy_parallel"]

#: Matches :class:`repro.experiments.base.Scale`'s base seed.
DEFAULT_BASE_SEED = 2000


def evaluate_policy_parallel(
    config: SimulationConfig,
    policy_name: str,
    *,
    estimation_error: float | None = None,
    replications: int = 10,
    base_seed: int = DEFAULT_BASE_SEED,
    confidence: float = 0.95,
    n_jobs: int = 2,
    cache: ReplicationCache | None = None,
) -> PolicyEvaluation:
    """Replicated evaluation with replications spread over *n_jobs*
    worker processes (the shared pool).

    ``policy_name`` (plus the optional Figure 6 ``estimation_error``)
    must resolve through :func:`repro.core.policies.get_policy` — the
    policy is reconstructed inside each worker.  Pass a
    :class:`~repro.core.cache.ReplicationCache` to reuse completed
    replications across invocations.
    """
    if replications < 1:
        raise ValueError(f"need at least one replication, got {replications}")
    # Validate the name up front (fail fast in the parent process).
    policy = get_policy(policy_name, estimation_error=estimation_error)

    tasks = [
        ReplicationTask(
            key=r,
            config=config,
            policy_name=policy_name,
            estimation_error=estimation_error,
            seed=seed,
        )
        for r, seed in enumerate(replication_seeds(base_seed, replications))
    ]
    report = run_replication_grid(tasks, n_jobs=n_jobs, cache=cache)
    outcomes = [report.outcomes[r] for r in range(replications)]
    return summarize_outcomes(policy.name, config, outcomes, confidence=confidence)
