"""Queueing-theoretic substrate: the analytical models behind Section 2.

* :class:`MM1` / :class:`MG1` — single-server building blocks (FCFS and
  processor-sharing views, P-K formula, PS insensitivity).
* :class:`HeterogeneousNetwork` — the paper's n-computer model with
  equations (1)–(3) for mean response time / response ratio.
* :mod:`~repro.queueing.objective` — the objective function F of
  Definition 1 and its gradient.
* :class:`GG1Approximation` — Kingman/Allen–Cunneen envelopes for the
  non-Poisson (hyperexponential) arrival case.
"""

from .gg1 import GG1Approximation, kingman_waiting_time
from .mg1 import MG1
from .mmc import MMc, erlang_c
from .mm1 import MM1, ps_conditional_response, require_stable
from .network import HeterogeneousNetwork, validate_allocation
from .objective import objective_gradient, objective_value

__all__ = [
    "MM1",
    "MG1",
    "MMc",
    "erlang_c",
    "GG1Approximation",
    "HeterogeneousNetwork",
    "validate_allocation",
    "objective_value",
    "objective_gradient",
    "ps_conditional_response",
    "require_stable",
    "kingman_waiting_time",
]
