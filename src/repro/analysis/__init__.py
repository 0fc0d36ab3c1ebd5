"""Simulation-methodology tools: model validation and workload reports."""

from .validation import ValidationReport, validate_against_theory
from .workload_report import WorkloadReport, characterize

__all__ = [
    "validate_against_theory",
    "ValidationReport",
    "characterize",
    "WorkloadReport",
]
