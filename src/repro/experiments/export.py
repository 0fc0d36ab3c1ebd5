"""Structured export of experiment results (JSON).

Sweep results carry everything needed to re-plot the paper's figures in
any external tool; these helpers serialize them losslessly (means, CI
half-widths, replication counts) instead of the printable tables.
"""

from __future__ import annotations

import json
from pathlib import Path

from .base import SweepResult

__all__ = ["sweep_to_dict", "save_sweep_json"]

_METRICS = ("mean_response_time", "mean_response_ratio", "fairness")


def _cell_metrics(evaluation) -> tuple[str, ...]:
    """The paper's metrics, plus loss_rate on fault-injection sweeps."""
    if evaluation.loss_rate is not None:
        return _METRICS + ("loss_rate",)
    return _METRICS


def sweep_to_dict(result: SweepResult) -> dict:
    """Lossless JSON-ready representation of a sweep."""
    points = []
    for x in result.x_values:
        row = {"x": x, "policies": {}}
        for policy in result.policies:
            if policy not in result.cells[x]:
                continue  # every replication of this cell quarantined
            evaluation = result.cells[x][policy]
            row["policies"][policy] = {
                metric: {
                    "mean": evaluation.metric(metric).mean,
                    "half_width": evaluation.metric(metric).half_width,
                    "n": evaluation.metric(metric).n,
                }
                for metric in _cell_metrics(evaluation)
            }
        points.append(row)
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "x_label": result.x_label,
        "scale": {
            "name": result.scale.name,
            "duration": result.scale.duration,
            "replications": result.scale.replications,
        },
        "policies": list(result.policies),
        "points": points,
    }


def save_sweep_json(result: SweepResult, path: str | Path) -> Path:
    """Write the sweep as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(sweep_to_dict(result), indent=2) + "\n")
    return path

