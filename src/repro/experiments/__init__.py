"""Experiment harness: one runner per table and figure of the paper.

See DESIGN.md for the experiment index (workload, parameters, expected
shape) and EXPERIMENTS.md for recorded paper-vs-measured results.
"""

from .base import SCALES, Scale, SweepResult, active_scale, run_policy_sweep
from .configs import (
    BASE_SPEEDS,
    FIGURE2_FRACTIONS,
    TABLE1_SPEEDS,
    base_config,
    size_config,
    skewness_config,
    table1_config,
)
from .export import save_sweep_json, sweep_to_dict
from .extension_adaptive import AdaptiveResult, run_adaptive_extension
from .extension_faults import format_faults_extension, run_faults_extension
from .extension_online import OnlineCell, OnlineResult, run_online_extension
from .figure2 import Figure2Result, run_figure2
from .figure3 import format_figure3, run_figure3
from .figure4 import format_figure4, run_figure4
from .figure5 import format_figure5, run_figure5
from .figure6 import format_figure6, run_figure6
from .registry import EXPERIMENTS, experiment_ids, run_experiment
from .reporting import format_series_dict, format_sweep, format_table
from .table1 import Table1Result, run_table1
from .table2 import Table2Result, run_table2

__all__ = [
    "Scale",
    "SCALES",
    "active_scale",
    "SweepResult",
    "run_policy_sweep",
    "BASE_SPEEDS",
    "TABLE1_SPEEDS",
    "FIGURE2_FRACTIONS",
    "base_config",
    "table1_config",
    "skewness_config",
    "size_config",
    "run_table1",
    "Table1Result",
    "run_table2",
    "Table2Result",
    "run_figure2",
    "Figure2Result",
    "run_figure3",
    "format_figure3",
    "run_figure4",
    "format_figure4",
    "run_figure5",
    "format_figure5",
    "run_figure6",
    "format_figure6",
    "EXPERIMENTS",
    "experiment_ids",
    "run_experiment",
    "format_table",
    "format_sweep",
    "format_series_dict",
    "sweep_to_dict",
    "save_sweep_json",
    "run_adaptive_extension",
    "AdaptiveResult",
    "run_faults_extension",
    "format_faults_extension",
    "run_online_extension",
    "OnlineResult",
    "OnlineCell",
]
