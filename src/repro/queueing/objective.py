"""The paper's objective function F (Definition 1) and its calculus.

Minimizing the system mean response time T̄ = −n/λ + (1/λ) F(α) is
equivalent to minimizing

.. math::  F(\\alpha) = \\sum_i \\frac{s_i\\mu}{s_i\\mu - \\alpha_i\\lambda}

subject to Σαᵢ = 1 and 0 ≤ αᵢ < sᵢμ/λ.  F is strictly convex on the
feasible region (each term is convex in αᵢ), so the KKT solution of
Theorems 1–3 is the unique global minimum — which is what lets the
closed form and the scipy numerical solver be compared exactly.
"""

from __future__ import annotations

import numpy as np

from .network import HeterogeneousNetwork, validate_allocation

__all__ = ["objective_value", "objective_gradient"]


def objective_value(network: HeterogeneousNetwork, alphas) -> float:
    """F(α) = Σ sᵢμ / (sᵢμ − αᵢλ)."""
    a = validate_allocation(alphas)
    if a.size != network.n:
        raise ValueError(f"allocation has {a.size} entries for {network.n} computers")
    rates = network.service_rates()
    denom = rates - a * network.arrival_rate
    if np.any(denom <= 0):
        raise ValueError("allocation saturates a computer: alpha*lambda >= s*mu")
    return float(np.sum(rates / denom))


def objective_gradient(network: HeterogeneousNetwork, alphas) -> np.ndarray:
    """∂F/∂αᵢ = sᵢμλ / (sᵢμ − αᵢλ)²."""
    a = validate_allocation(alphas)
    rates = network.service_rates()
    denom = rates - a * network.arrival_rate
    if np.any(denom <= 0):
        raise ValueError("allocation saturates a computer: alpha*lambda >= s*mu")
    return rates * network.arrival_rate / denom**2

