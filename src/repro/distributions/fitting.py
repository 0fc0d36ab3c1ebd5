"""Moment-matching helpers for building arrival/size processes.

The experiment sweeps (especially the burstiness ablation) need an
inter-arrival distribution with an arbitrary target CV.  No single family
covers the whole range, so :func:`distribution_from_mean_cv` selects:

* ``cv == 0``      → :class:`Deterministic`
* ``0 < cv < 1``   → :class:`Erlang`-k with k = ceil(1/cv²), rate adjusted
  by a two-point mixture is overkill here: we pick the Erlang whose CV is
  closest from below and report the achieved CV, which is exact whenever
  1/cv² is an integer (the values used by the sweeps).
* ``cv == 1``      → :class:`Exponential`
* ``cv > 1``       → balanced-means :class:`Hyperexponential`
"""

from __future__ import annotations

from .base import Distribution
from .exponential import Deterministic, Erlang, Exponential
from .hyperexponential import Hyperexponential

__all__ = ["distribution_from_mean_cv"]

_CV_TOL = 1e-9


def distribution_from_mean_cv(mean: float, cv: float) -> Distribution:
    """Return a distribution matching *mean* exactly and *cv* as described.

    For ``cv < 1`` the CV match is exact only when ``1/cv²`` is an integer
    (e.g. cv = 0.5 → Erlang-4); otherwise the nearest Erlang order is used
    and the caller can read the achieved CV off the returned object.
    """
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    if cv < 0:
        raise ValueError(f"cv must be non-negative, got {cv}")
    if cv < _CV_TOL:
        return Deterministic(mean)
    if abs(cv - 1.0) < _CV_TOL:
        return Exponential.from_mean(mean)
    if cv > 1.0:
        return Hyperexponential.from_mean_cv(mean, cv)
    k = max(1, round(1.0 / (cv * cv)))
    return Erlang.from_mean_k(mean, k)
