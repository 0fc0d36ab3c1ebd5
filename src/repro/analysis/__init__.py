"""Simulation-methodology tools: warm-up detection and model validation."""

from .batchmeans import BatchMeansResult, batch_means_ci
from .validation import ValidationReport, validate_against_theory
from .warmup import MserResult, batch_means, mser
from .workload_report import WorkloadReport, characterize

__all__ = [
    "batch_means_ci",
    "BatchMeansResult",
    "mser",
    "batch_means",
    "MserResult",
    "validate_against_theory",
    "ValidationReport",
    "characterize",
    "WorkloadReport",
]
