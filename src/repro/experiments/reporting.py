"""Plain-text rendering of experiment results (tables and figure series).

The paper's figures are line charts; we regenerate each as an ASCII
table with one row per x value and one column per (policy, metric), the
form the series would be plotted from.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .base import SweepResult

__all__ = ["format_table", "format_sweep", "format_series_dict"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    title: str | None = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render rows as a fixed-width text table."""
    if not headers:
        raise ValueError("headers must be non-empty")
    rendered: list[list[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells for {len(headers)} headers: {row}"
            )
        rendered.append(
            [
                float_fmt.format(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            ]
        )
    widths = [
        max(len(str(h)), *(len(r[i]) for r in rendered)) if rendered else len(str(h))
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in rendered:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_sweep(result: SweepResult, metric: str) -> str:
    """One metric of a sweep as a table: x rows × policy columns."""
    headers = [result.x_label] + result.policies
    rows = [
        [x] + [result.cells[x][p].metric(metric).mean for p in result.policies]
        for x in result.x_values
    ]
    title = f"{result.experiment_id}: {result.title} — {metric} [{result.scale.name} scale]"
    return format_table(headers, rows, title=title)


def format_series_dict(
    x_label: str, x_values: Sequence[float], series: dict[str, Sequence[float]],
    *, title: str | None = None
) -> str:
    """Generic x-vs-several-series table (for non-policy figures)."""
    headers = [x_label] + list(series)
    length = len(x_values)
    for name, values in series.items():
        if len(values) != length:
            raise ValueError(f"series {name!r} has {len(values)} points for {length} x")
    rows = [
        [x] + [series[name][i] for name in series] for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, title=title)
