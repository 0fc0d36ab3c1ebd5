"""Perf-regression gate: compare a fresh bench record to the baseline.

``repro bench --gate`` runs the normal bench suite, then hands the new
record and the trajectory history from ``BENCH_sweep.json`` to
:func:`check_gate` instead of appending.  The gate fails (CLI exits
nonzero, nothing appended) on either:

* **bit-identity divergence** — any of the recorded agreement flags
  (``replication.*.agree``, ``sweep.grid_identical``,
  ``cell.cell_identical``, ``telemetry.trace_identical``) is false in
  the new record, regardless of threshold; or
* **perf regression** — a tracked *speedup ratio* dropped more than
  ``threshold`` (default 20%) below the baseline.  Ratios of two
  timings taken on the same box are compared, never absolute seconds,
  so the gate ports across machines of different absolute speed; or
* **floor violation** — a ratio with an absolute per-scale floor (e.g.
  ``cell.cell_speedup`` >= 2.0x at quick scale) came in below it, even
  when no baseline exists for the relative comparison.

The baseline is the most recent prior record at the same scale (same
work → comparable ratios); with no comparable baseline the gate passes
vacuously, reporting why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "GateResult",
    "check_gate",
    "DEFAULT_THRESHOLD",
    "NET_DISPATCH_CEILING_NS",
]

#: ">20% slowdown" from the issue spec.
DEFAULT_THRESHOLD = 0.20

#: Speedup ratios tracked by the gate, as (dotted path, description).
_RATIOS = (
    ("kernels.fcfs_speedup", "FCFS kernel vs loop"),
    ("kernels.ps_speedup", "PS kernel vs loop"),
    ("replication.ps.speedup", "PS fast path vs engine"),
    ("replication.fcfs.speedup", "FCFS fast path vs engine"),
    ("sweep.cache_speedup", "warm cache vs cold sweep"),
    ("cell.cell_speedup", "cell-batched vs flat sweep"),
    ("serve.serve_speedup", "vectorized serve loop vs reference"),
)

#: Bit-identity flags that must be true whenever present.
_IDENTITY_FLAGS = (
    "replication.ps.agree",
    "replication.fcfs.agree",
    "sweep.grid_identical",
    "cell.cell_identical",
    "telemetry.trace_identical",
    "kernels.fcfs_bit_identical",
    "serve.report_identical",
    "net.report_identical",
    "net.overload_report_identical",
    "net.rejoin_report_identical",
    "net.balanced_no_shed",
)

#: Absolute ratio floors enforced per scale, independent of any baseline:
#: (dotted path, scale name, minimum value, description, guard).  Floors
#: pin the acceptance criteria that motivated an optimization so a later
#: change cannot erode them 19% at a time under the relative threshold.
#: The guard — ``None`` or a (dotted path, value) pair — limits a floor
#: to records where that field matches (the serve floor assumes the
#: compiled kernel; the pure-python fallback is correct but slower).
_FLOORS = (
    ("cell.cell_speedup", "quick", 2.0, "cell-batched vs flat sweep (fcfs)",
     None),
    ("serve.serve_speedup", "quick", 5.0, "vectorized serve loop vs reference",
     ("serve.backend", "c")),
)

#: Ceiling on the networked dispatch-decision latency, in ns per job.
#: Deliberately generous — the decision plane runs a few vectorized
#: folds per window, so even a slow shared runner sits an order of
#: magnitude under it; breaching it means per-job Python crept back
#: into the hot path.  ``bench --net`` enforces it inline (nothing is
#: appended on a breach) and the gate re-checks recorded values.
NET_DISPATCH_CEILING_NS = 25_000.0

#: Absolute ceilings on latency-like metrics: (dotted path, scale name
#: or None for all scales, maximum value, description, guard).
_CEILINGS = (
    ("net.dispatch_ns_per_job", None, NET_DISPATCH_CEILING_NS,
     "networked dispatch decision latency per job (ns)", None),
    # 256 sub-millisecond flat tasks on two workers, pool wall over
    # serial wall.  Chunked units read 0.54-1.01 over 22 runs on a
    # shared 2-vCPU box; one future per task read 1.14-1.86.
    ("executor.flat_pool_vs_serial", None, 1.1,
     "flat grid of sub-millisecond tasks, pool wall / serial wall", None),
)


def _lookup(record: dict, dotted: str):
    node = record
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


@dataclass
class GateResult:
    """Outcome of one gate evaluation."""

    passed: bool
    threshold: float
    baseline_timestamp: Optional[str] = None
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = []
        verdict = "PASS" if self.passed else "FAIL"
        base = self.baseline_timestamp or "none"
        lines.append(
            f"perf gate: {verdict} "
            f"(threshold {self.threshold:.0%}, baseline {base})"
        )
        lines.extend(f"  FAIL: {f}" for f in self.failures)
        lines.extend(f"  {n}" for n in self.notes)
        return "\n".join(lines)


def find_baseline(history: List[dict], record: dict) -> Optional[dict]:
    """Most recent prior record at the same scale, or None."""
    scale = record.get("scale")
    for prior in reversed(history):
        if prior is not record and prior.get("scale") == scale:
            return prior
    return None


def check_gate(
    record: dict,
    history: List[dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> GateResult:
    """Evaluate *record* against the trajectory *history*."""
    result = GateResult(passed=True, threshold=threshold)

    # Bit-identity is non-negotiable at any threshold.
    for flag in _IDENTITY_FLAGS:
        value = _lookup(record, flag)
        if value is False:
            result.passed = False
            result.failures.append(f"bit-identity divergence: {flag} is false")

    # Absolute floors apply even with no baseline to compare against.
    for path, scale, minimum, label, guard in _FLOORS:
        if record.get("scale") != scale:
            continue
        if guard is not None and _lookup(record, guard[0]) != guard[1]:
            continue
        value = _lookup(record, path)
        if isinstance(value, (int, float)) and value < minimum:
            result.passed = False
            result.failures.append(
                f"{label} ({path}): {value:.2f}x below the "
                f"{minimum:.1f}x floor at scale {scale!r}"
            )

    # Absolute ceilings: same shape as floors, opposite direction.
    for path, scale, maximum, label, guard in _CEILINGS:
        if scale is not None and record.get("scale") != scale:
            continue
        if guard is not None and _lookup(record, guard[0]) != guard[1]:
            continue
        value = _lookup(record, path)
        if isinstance(value, (int, float)) and value > maximum:
            result.passed = False
            result.failures.append(
                f"{label} ({path}): {value:g} above the "
                f"{maximum:g} ceiling"
            )

    baseline = find_baseline(history, record)
    if baseline is None:
        result.notes.append(
            f"no baseline at scale {record.get('scale')!r}; "
            "ratio checks skipped"
        )
        return result
    result.baseline_timestamp = baseline.get("timestamp")

    for path, label in _RATIOS:
        new = _lookup(record, path)
        old = _lookup(baseline, path)
        if not isinstance(new, (int, float)) or not isinstance(old, (int, float)):
            continue  # section absent in one of the two records
        if old <= 0:
            continue
        drop = 1.0 - new / old
        if drop > threshold:
            result.passed = False
            result.failures.append(
                f"{label} ({path}): {old:.2f}x -> {new:.2f}x "
                f"({drop:.0%} slowdown > {threshold:.0%})"
            )
        else:
            result.notes.append(
                f"{label}: {old:.2f}x -> {new:.2f}x ({-drop:+.0%})"
            )
    return result
