"""Job-dispatching strategies (the paper's Section 3 plus baselines).

* :class:`RandomDispatcher` — Section 3.1 probability splitting
  (the *RAN half of WRAN/ORAN).
* :class:`RoundRobinDispatcher` — Algorithm 2 generalized round robin
  (the *RR half of WRR/ORR).
* :class:`CyclicDispatcher` — the equal-fraction degenerate case.
* :class:`LeastLoadDispatcher` — the Dynamic Least-Load yardstick with a
  stale, feedback-driven load view.
* :class:`SitaDispatcher` — clairvoyant size-interval extension.
* :mod:`~repro.dispatch.deviation` — the Figure 2 allocation-deviation
  metric.
"""

from .base import Dispatcher, StaticDispatcher
from .burst_wrr import BurstWeightedRoundRobinDispatcher
from .cyclic import CyclicDispatcher
from .deviation import DeviationSeries, interval_deviations
from .jsq import PowerOfDChoicesDispatcher
from .least_load import LeastLoadDispatcher
from .least_work import LeastWorkDispatcher
from .random_dispatch import RandomDispatcher
from .round_robin import (
    RoundRobinDispatcher,
    SequenceRoundRobin,
    build_dispatch_sequence,
    dispatch_sequence_slice,
    sequence_memo_key,
)
from .sita import SitaDispatcher, sita_cutoffs

__all__ = [
    "Dispatcher",
    "StaticDispatcher",
    "RandomDispatcher",
    "RoundRobinDispatcher",
    "SequenceRoundRobin",
    "build_dispatch_sequence",
    "dispatch_sequence_slice",
    "sequence_memo_key",
    "CyclicDispatcher",
    "BurstWeightedRoundRobinDispatcher",
    "LeastLoadDispatcher",
    "LeastWorkDispatcher",
    "PowerOfDChoicesDispatcher",
    "SitaDispatcher",
    "sita_cutoffs",
    "interval_deviations",
    "DeviationSeries",
]
