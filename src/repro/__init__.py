"""repro — reproduction of Tang & Chanson, "Optimizing Static Job
Scheduling in a Network of Heterogeneous Computers" (ICPP 2000).

Quick tour
----------

>>> from repro import SimulationConfig, evaluate_policy, get_policy
>>> config = SimulationConfig(speeds=(1, 1, 10, 10), utilization=0.7,
...                           duration=5e4)
>>> orr = evaluate_policy(config, get_policy("ORR"), replications=3)
>>> wrr = evaluate_policy(config, get_policy("WRR"), replications=3)
>>> orr.mean_response_ratio.mean < wrr.mean_response_ratio.mean
True

Package map
-----------

* :mod:`repro.core` — scheduling policies (ORR/WRR/ORAN/WRAN/Least-Load)
  and the replicated evaluation protocol.
* :mod:`repro.allocation` — workload allocation: simple weighted and the
  optimized closed form (Algorithm 1), plus a scipy cross-check.
* :mod:`repro.dispatch` — job dispatching: random, generalized round
  robin (Algorithm 2), dynamic least load, SITA extension.
* :mod:`repro.sim` — discrete-event simulator (PS/FCFS/quantum servers,
  feedback delays) and the vectorized static-policy fast path.
* :mod:`repro.queueing` — M/M/1, M/G/1, G/G/1 theory and the paper's
  objective function.
* :mod:`repro.distributions` — Bounded Pareto sizes, hyperexponential
  arrivals, and supporting families.
* :mod:`repro.metrics` — response time/ratio, fairness, deviation,
  replication confidence intervals.
* :mod:`repro.experiments` — one runner per table/figure of the paper.
"""

from .allocation import (
    AllocationResult,
    Allocator,
    MisestimatedOptimizedAllocator,
    NumericAllocator,
    OptimizedAllocator,
    WeightedAllocator,
    optimized_fractions,
)
from .core import (
    PAPER_POLICIES,
    AdaptiveOrrDispatcher,
    PolicyEvaluation,
    SchedulingPolicy,
    evaluate_policy,
    get_policy,
    policy_names,
    run_policy_once,
)
from .dispatch import (
    Dispatcher,
    LeastLoadDispatcher,
    RandomDispatcher,
    RoundRobinDispatcher,
)
from .distributions import BoundedPareto, Hyperexponential, paper_job_sizes
from .metrics import MetricsCollector, ResponseMetrics, summarize_replications
from .queueing import HeterogeneousNetwork, objective_value
from .sim import (
    FeedbackModel,
    JobTrace,
    SimulationConfig,
    SimulationResults,
    run_simulation,
    run_static_simulation,
    run_trace_simulation,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "SchedulingPolicy",
    "get_policy",
    "policy_names",
    "PAPER_POLICIES",
    "PolicyEvaluation",
    "evaluate_policy",
    "run_policy_once",
    "AdaptiveOrrDispatcher",
    # allocation
    "Allocator",
    "AllocationResult",
    "WeightedAllocator",
    "OptimizedAllocator",
    "NumericAllocator",
    "MisestimatedOptimizedAllocator",
    "optimized_fractions",
    # dispatch
    "Dispatcher",
    "RandomDispatcher",
    "RoundRobinDispatcher",
    "LeastLoadDispatcher",
    # sim
    "SimulationConfig",
    "SimulationResults",
    "run_simulation",
    "run_static_simulation",
    "run_trace_simulation",
    "FeedbackModel",
    "JobTrace",
    # queueing
    "HeterogeneousNetwork",
    "objective_value",
    # distributions
    "BoundedPareto",
    "Hyperexponential",
    "paper_job_sizes",
    # metrics
    "MetricsCollector",
    "ResponseMetrics",
    "summarize_replications",
]
