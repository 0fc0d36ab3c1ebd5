"""The paper's primary contribution assembled: named scheduling policies
(Table 2), the replicated evaluation protocol (Section 4.1), and the
performance stack that runs it — grid executor, shared worker pool, and
persistent replication cache."""

from .adaptive import AdaptiveOrrDispatcher
from .cache import ReplicationCache, default_cache
from .evaluate import (
    CellEvaluation,
    PolicyEvaluation,
    evaluate_cell,
    evaluate_cell_to_precision,
    evaluate_policy,
    run_policy_once,
    summarize_outcomes,
)
from .executor import (
    CellTask,
    GridReport,
    ReplicationTask,
    resolve_n_jobs,
    run_cell_grid,
    run_replication_grid,
    shared_executor,
    shutdown_shared_executor,
)
from .policies import PAPER_POLICIES, SchedulingPolicy, get_policy, policy_names

__all__ = [
    "SchedulingPolicy",
    "get_policy",
    "policy_names",
    "PAPER_POLICIES",
    "PolicyEvaluation",
    "CellEvaluation",
    "evaluate_policy",
    "evaluate_cell",
    "evaluate_cell_to_precision",
    "run_policy_once",
    "AdaptiveOrrDispatcher",
    "ReplicationCache",
    "default_cache",
    "ReplicationTask",
    "CellTask",
    "GridReport",
    "resolve_n_jobs",
    "run_replication_grid",
    "run_cell_grid",
    "shared_executor",
    "shutdown_shared_executor",
    "summarize_outcomes",
]
