"""Sweep checkpointing: completed replications survive interruption.

A sweep checkpoint is an append-only JSONL file: one line per completed
(point, policy, replication) cell, written as soon as the cell finishes.
Killing a sweep mid-flight loses at most the cells still in workers;
re-running with the same checkpoint path (``repro run --resume``) loads
the file and skips every finished cell before touching the cache or the
worker grid.

The checkpoint differs from :class:`~repro.core.cache.ReplicationCache`
in scope and key: the cache is content-addressed (full config hash,
shared across experiments and sessions), while the checkpoint is keyed
by the sweep's own task keys — ``(x, policy, replication)`` — so it is
only meaningful for the experiment/scale it was written by.  Keep one
checkpoint file per (experiment, scale) pair; the CLI derives
``.repro_checkpoints/<experiment>_<scale>.jsonl`` automatically.

Corrupt or truncated lines (a crash mid-append) are skipped on load —
the affected cell simply recomputes.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Hashable

from .evaluate import Outcome

__all__ = ["SweepCheckpoint"]


def _freeze(value):
    """JSON arrays → tuples, recursively, so keys round-trip hashable."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


class SweepCheckpoint:
    """Append-only JSONL store of completed sweep cells."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def load(self) -> dict:
        """Completed cells: task key → :class:`~repro.core.evaluate.Outcome`.
        Missing file or corrupt lines are not errors (they just
        recompute)."""
        done: dict = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return done
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                done[_freeze(entry["key"])] = Outcome.from_json(entry["outcome"])
            except (ValueError, KeyError, TypeError):
                continue  # truncated append: recompute that cell
        return done

    def record(self, key: Hashable, outcome) -> None:
        """Append one finished cell and flush it to disk immediately."""
        data = {"key": key, "outcome": Outcome(*outcome).to_json()}
        line = json.dumps(data, separators=(",", ":"))
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def __len__(self) -> int:
        return len(self.load())
