"""Workload distributions used by the paper's simulation model.

* :class:`BoundedPareto` — heavy-tailed job sizes (Section 4.1 defaults
  k=10 s, p=21600 s, alpha=1.0, mean ≈ 76.8 s).
* :class:`Hyperexponential` — bursty inter-arrival times (CV = 3.0 in the
  paper), balanced-means moment fit.
* :class:`Exponential`, :class:`Erlang`, :class:`Deterministic` —
  supporting families for baselines, ablations, and the Dynamic
  Least-Load feedback delays.
"""

from .base import Distribution
from .bounded_pareto import (
    PAPER_ALPHA,
    PAPER_K,
    PAPER_P,
    BoundedPareto,
    paper_job_sizes,
)
from .exponential import Deterministic, Erlang, Exponential
from .fitting import distribution_from_mean_cv
from .heavy import Lognormal, Weibull
from .hyperexponential import Hyperexponential, fit_h2_balanced_means

__all__ = [
    "Distribution",
    "BoundedPareto",
    "paper_job_sizes",
    "PAPER_K",
    "PAPER_P",
    "PAPER_ALPHA",
    "Exponential",
    "Erlang",
    "Deterministic",
    "Hyperexponential",
    "Lognormal",
    "Weibull",
    "fit_h2_balanced_means",
    "distribution_from_mean_cv",
]
