"""Result digests: SHA-256 fingerprints of packed metric vectors.

The bit-identity promises in this repo (serial == grid == cell-batched
== Python-kernel) are all statements about *float arrays being equal to
the last bit*.  A digest turns one result object into a short stable
hex string, so golden tests can pin a constant and any execution path
that drifts — kernel change, summation reorder, RNG regression — fails
loudly with a one-line diff instead of a wall of floats.

All arrays are packed as little-endian float64 with name and shape
separators, making digests portable across platforms and insensitive
to dict ordering.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "digest_arrays",
    "sweep_digest",
    "figure2_digest",
    "results_digest",
    "reports_identical",
]


def digest_arrays(named_arrays) -> str:
    """SHA-256 over ``(name, array)`` pairs, order-sensitive.

    Each array is cast to little-endian float64 (an exact, lossless
    re-encoding for float64 inputs and for the int counters we digest)
    so byte layout never depends on the producing platform.
    """
    h = hashlib.sha256()
    for name, arr in named_arrays:
        a = np.ascontiguousarray(np.asarray(arr, dtype="<f8"))
        h.update(name.encode())
        h.update(b"|")
        h.update(str(a.shape).encode())
        h.update(b"|")
        h.update(a.tobytes())
        h.update(b";")
    return h.hexdigest()


def sweep_digest(result, metrics=("mean_response_time", "mean_response_ratio")) -> str:
    """Digest of a :class:`~repro.experiments.base.SweepResult`.

    Packs the per-policy metric-mean series plus x values and the
    per-cell dispatch fractions — enough to catch any numeric drift in
    the replicated paper metrics while staying independent of timings,
    cache statistics, and other run-shape bookkeeping.
    """
    parts = [("x", np.asarray(result.x_values, dtype=float))]
    for policy in result.policies:
        for metric in metrics:
            parts.append((f"{policy}.{metric}", result.series(policy, metric)))
        fractions = [
            result.cells[x][policy].dispatch_fractions
            for x in result.x_values
            if policy in result.cells.get(x, {})
        ]
        if fractions:
            parts.append((f"{policy}.dispatch_fractions", np.concatenate(fractions)))
    return digest_arrays(parts)


def figure2_digest(result) -> str:
    """Digest of a :class:`~repro.experiments.figure2.Figure2Result`."""
    return digest_arrays(
        [
            ("round_robin", result.round_robin.deviations),
            ("random", result.random.deviations),
        ]
    )


def results_digest(results) -> str:
    """Digest of one :class:`~repro.sim.results.SimulationResults`.

    Covers the response metrics, the per-server ledger, and the
    dispatch fractions — the quantities every execution path must
    reproduce bit-identically for the same seed.
    """
    m = results.metrics
    return digest_arrays(
        [
            (
                "metrics",
                [m.mean_response_time, m.mean_response_ratio, m.fairness, m.jobs],
            ),
            ("dispatch_fractions", results.dispatch_fractions),
            ("received", [s.jobs_received for s in results.servers]),
            ("completed", [s.jobs_completed for s in results.servers]),
            ("busy", [s.busy_time for s in results.servers]),
            ("arrivals", [results.total_arrivals]),
        ]
    )


def reports_identical(a, b) -> bool:
    """Whether two service reports are equal field for field.

    Takes anything with ``as_dict()`` (a ``ServiceReport``).  Comparing
    the sorted JSON text keeps NaN fields comparable, so this is a
    bit-identity check, not an approximate one.
    """
    return (
        json.dumps(a.as_dict(), sort_keys=True)
        == json.dumps(b.as_dict(), sort_keys=True)
    )
