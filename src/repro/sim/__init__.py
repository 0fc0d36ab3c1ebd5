"""Discrete-event simulation substrate (the paper's Section 4.1 simulator).

Two execution paths produce statistically identical results:

* :func:`run_simulation` — general event engine; required for Dynamic
  Least-Load (stale feedback) and the finite-quantum ablation.
* :func:`run_static_simulation` — vectorized path for static policies
  (generate → dispatch → per-server PS/FCFS replay), several times
  faster.

:func:`run_cell` batches the static path across every (policy ×
replication) member of a sweep cell, sharing each replication's arrival
and size streams through a :class:`~repro.sim.streams.StreamPool`.
"""

from .arrivals import ArrivalStream, Workload
from .config import PAPER_DURATION, PAPER_WARMUP_FRACTION, SimulationConfig
from .engine import run_simulation
from .events import EventKind, EventQueue
from .fastpath import (
    KERNEL_VERSION,
    fcfs_replay,
    ps_replay,
    run_cell,
    run_static_simulation,
)
from .feedback import (
    PAPER_DETECTION_WINDOW,
    PAPER_MESSAGE_DELAY_MEAN,
    FeedbackModel,
)
from .job import Job
from .results import DispatchTrace, ServerStats, SimulationResults
from .server import (
    FCFSServer,
    ProcessorSharingServer,
    RoundRobinQuantumServer,
    Server,
)
from .trace import JobTrace, run_trace_simulation

__all__ = [
    "SimulationConfig",
    "PAPER_DURATION",
    "PAPER_WARMUP_FRACTION",
    "run_simulation",
    "run_static_simulation",
    "run_cell",
    "ps_replay",
    "fcfs_replay",
    "KERNEL_VERSION",
    "Workload",
    "ArrivalStream",
    "FeedbackModel",
    "PAPER_DETECTION_WINDOW",
    "PAPER_MESSAGE_DELAY_MEAN",
    "Job",
    "Server",
    "ProcessorSharingServer",
    "FCFSServer",
    "RoundRobinQuantumServer",
    "EventQueue",
    "EventKind",
    "SimulationResults",
    "ServerStats",
    "DispatchTrace",
    "JobTrace",
    "run_trace_simulation",
]
