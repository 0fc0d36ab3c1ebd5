"""Numerical cross-check of Algorithm 1 via scipy's SLSQP.

F(α) is strictly convex on the feasible simplex slice, so a local
minimizer is the global one; running SLSQP with the analytic gradient
from :mod:`repro.queueing.objective` must land on the same allocation as
the closed form (to solver tolerance).  This validates both the
Lagrangian algebra of Theorem 1 and the zero-share cutoff of Theorem 2
without trusting either derivation, and the ablation benchmark
quantifies how much faster the closed form is.
"""

from __future__ import annotations

import numpy as np

from ..queueing.network import HeterogeneousNetwork
from ..queueing.objective import objective_gradient, objective_value
from .base import AllocationResult, Allocator

__all__ = ["NumericAllocator", "numeric_fractions"]


def numeric_fractions(
    network: HeterogeneousNetwork,
    *,
    tol: float = 1e-12,
    max_iterations: int = 500,
) -> np.ndarray:
    """Solve the allocation program with SLSQP and return α.

    Starts from the simple weighted allocation (always feasible for a
    stable system) and enforces per-computer non-saturation through box
    bounds αᵢ ≤ (1 − margin)·sᵢμ/λ.
    """
    if network.arrival_rate <= 0:
        raise ValueError("numeric allocation needs a positive arrival rate")
    if not network.stable:
        raise ValueError(
            f"system saturated (utilization={network.utilization:.4f} >= 1)"
        )
    lam = network.arrival_rate
    rates = network.service_rates()
    x0 = network.speeds / network.total_speed

    # Keep iterates strictly inside the stability region so the objective
    # stays finite during line searches.
    margin = 1e-9
    upper = np.minimum((1.0 - margin) * rates / lam, 1.0)

    def fun(a: np.ndarray) -> float:
        denom = rates - a * lam
        return float(np.sum(rates / denom))

    def grad(a: np.ndarray) -> np.ndarray:
        denom = rates - a * lam
        return rates * lam / denom**2

    # Imported here, not at module level: scipy.optimize is heavy, and
    # only this cross-check solver needs it.
    from scipy import optimize

    result = optimize.minimize(
        fun,
        x0,
        jac=grad,
        method="SLSQP",
        bounds=[(0.0, float(u)) for u in upper],
        constraints=[{"type": "eq", "fun": lambda a: a.sum() - 1.0,
                      "jac": lambda a: np.ones_like(a)}],
        options={"maxiter": max_iterations, "ftol": tol},
    )
    if not result.success:
        raise RuntimeError(f"SLSQP failed to converge: {result.message}")
    alphas = np.clip(result.x, 0.0, None)
    total = alphas.sum()
    if not np.isfinite(total) or total <= 0:
        raise RuntimeError("SLSQP returned a degenerate allocation")
    alphas /= total
    # Squash solver dust: components below tolerance are true zeros in the
    # closed form (Theorem 2) and keeping them poisons dispatch cycling.
    alphas[alphas < 1e-9] = 0.0
    alphas /= alphas.sum()
    return alphas


class NumericAllocator(Allocator):
    """Allocator computing α by numerical optimization (SLSQP)."""

    name = "numeric"

    def __init__(self, tol: float = 1e-12, max_iterations: int = 500):
        self.tol = tol
        self.max_iterations = max_iterations

    def compute(self, network: HeterogeneousNetwork) -> AllocationResult:
        alphas = numeric_fractions(
            network, tol=self.tol, max_iterations=self.max_iterations
        )
        return AllocationResult(alphas=alphas, network=network, allocator_name=self.name)


def compare_with_closed_form(network: HeterogeneousNetwork) -> dict[str, float]:
    """Return the objective gap between SLSQP and Algorithm 1 (diagnostics)."""
    from .optimized import optimized_fractions

    closed = optimized_fractions(network)
    numeric = numeric_fractions(network)
    return {
        "objective_closed_form": objective_value(network, closed),
        "objective_numeric": objective_value(network, numeric),
        "max_abs_alpha_gap": float(np.max(np.abs(closed - numeric))),
        "max_abs_gradient_spread": float(
            np.ptp(objective_gradient(network, closed)[closed > 0])
        ),
    }
