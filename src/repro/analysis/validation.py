"""Systematic simulation-vs-theory validation.

The paper's optimizer rests on the M/M/1-PS model; the simulator runs a
more general workload.  This module quantifies the gap on demand: for a
configuration and a static policy it computes

* the analytical prediction from equations (1)–(3) (exact when arrivals
  are Poisson, an approximation under the H2 arrival process), and
* the simulated measurement with confidence interval,

and reports relative errors.  Used by the test suite to pin the engine
to theory under Poisson arrivals, and available to users to judge how
far the hyperexponential burstiness pushes their own configuration away
from the model (the gap the round-robin dispatcher narrows).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.evaluate import evaluate_policy
from ..core.policies import SchedulingPolicy
from ..sim.config import SimulationConfig

__all__ = ["ValidationReport", "validate_against_theory"]


@dataclass(frozen=True)
class ValidationReport:
    """Measured vs predicted metrics for one (config, policy) pair."""

    policy_name: str
    utilization: float
    arrival_cv: float
    predicted_response_time: float
    measured_response_time: float
    measured_response_time_half_width: float
    predicted_response_ratio: float
    measured_response_ratio: float
    measured_response_ratio_half_width: float
    replications: int

    @property
    def response_time_error(self) -> float:
        """Relative error of the model: (measured − predicted)/predicted."""
        return (
            self.measured_response_time - self.predicted_response_time
        ) / self.predicted_response_time

    @property
    def response_ratio_error(self) -> float:
        return (
            self.measured_response_ratio - self.predicted_response_ratio
        ) / self.predicted_response_ratio

    def summary(self) -> str:
        return (
            f"{self.policy_name} @ rho={self.utilization:.2f} cv={self.arrival_cv:g}: "
            f"ratio measured {self.measured_response_ratio:.4g} "
            f"± {self.measured_response_ratio_half_width:.2g} "
            f"vs predicted {self.predicted_response_ratio:.4g} "
            f"({self.response_ratio_error:+.1%})"
        )


def validate_against_theory(
    config: SimulationConfig,
    policy: SchedulingPolicy,
    *,
    replications: int = 5,
    base_seed: int = 0,
) -> ValidationReport:
    """Run the policy and compare with the paper's analytical model.

    Only static policies have a closed-form prediction (the model needs
    the fraction vector α); dynamic policies raise.
    """
    network = config.network()
    alphas = policy.fractions(network)
    if alphas is None:
        raise ValueError(
            f"policy {policy.name} has no static fraction vector to predict from"
        )
    predicted_time = network.mean_response_time(alphas)
    predicted_ratio = network.mean_response_ratio(alphas)

    evaluation = evaluate_policy(
        config, policy, replications=replications, base_seed=base_seed
    )
    return ValidationReport(
        policy_name=policy.name,
        utilization=config.utilization,
        arrival_cv=config.arrival_cv,
        predicted_response_time=predicted_time,
        measured_response_time=evaluation.mean_response_time.mean,
        measured_response_time_half_width=evaluation.mean_response_time.half_width,
        predicted_response_ratio=predicted_ratio,
        measured_response_ratio=evaluation.mean_response_ratio.mean,
        measured_response_ratio_half_width=evaluation.mean_response_ratio.half_width,
        replications=replications,
    )
