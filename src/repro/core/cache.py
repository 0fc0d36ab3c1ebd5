"""Persistent replication cache: completed runs survive the process.

A replication is a pure function of (simulation configuration, policy,
seed, kernel version), so its outcome can be stored on disk and reused:
re-running a figure at the same scale skips every completed replication,
and an interrupted ``paper``-scale sweep resumes instead of restarting.

Entries are keyed by a SHA-256 over a canonical JSON rendering of the
inputs.  The kernel version tag (:data:`repro.sim.fastpath.KERNEL_VERSION`)
participates in the key, so bumping it after a numerical change
invalidates every cached replication at once.  Each entry is one small
JSON file written atomically (temp file + rename): concurrent grid
workers and interrupted runs can never corrupt the store, and floats
survive the round-trip bit-exactly (shortest-repr serialization).

The cache is opt-in: pass a :class:`ReplicationCache` explicitly, or set
the ``REPRO_CACHE`` environment variable to a directory path and
:func:`default_cache` picks it up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import os
from pathlib import Path

import numpy as np

from ..obs.spans import span
from ..sim.config import SimulationConfig
from ..sim.fastpath import KERNEL_VERSION
from .evaluate import Outcome

__all__ = ["ReplicationCache", "default_cache", "config_signature"]

logger = logging.getLogger("repro.cache")


def config_signature(config: SimulationConfig) -> dict:
    """Canonical, JSON-ready rendering of every field that shapes a run."""
    signature = {
        "speeds": list(config.speeds),
        "utilization": config.utilization,
        "duration": config.duration,
        "warmup": config.warmup,
        "size_distribution": repr(config.size_distribution),
        "arrival_cv": config.arrival_cv,
        "discipline": config.discipline,
        "quantum": config.quantum,
        "drain": config.drain,
        "feedback": repr(config.feedback),
        "rate_profile": repr(config.rate_profile),
    }
    # Added only when set, so every fault-free key (and with it every
    # entry cached before fault injection existed) stays valid.
    if config.faults is not None:
        signature["faults"] = repr(config.faults)
    return signature


def _seed_signature(seed) -> dict:
    if isinstance(seed, np.random.SeedSequence):
        return {"entropy": seed.entropy, "spawn_key": list(seed.spawn_key)}
    return {"entropy": int(seed), "spawn_key": []}


class ReplicationCache:
    """On-disk store of completed replication outcomes."""

    def __init__(self, directory: str | Path, *, kernel_version: str = KERNEL_VERSION):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.kernel_version = str(kernel_version)

    def task_key(
        self,
        config: SimulationConfig,
        policy_name: str,
        estimation_error: float | None,
        seed,
    ) -> str:
        """Stable content hash identifying one replication."""
        payload = {
            "kernel": self.kernel_version,
            "config": config_signature(config),
            "policy": str(policy_name).upper(),
            "estimation_error": estimation_error,
            "seed": _seed_signature(seed),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Outcome | None:
        """The cached :class:`~repro.core.evaluate.Outcome`, or None
        (missing or unreadable).

        Unreadable means *any* defect — a torn write from a crashed
        process, truncation, a hand-edited file, wrong types: all decode
        failures degrade to a miss, and the subsequent :meth:`put`
        atomically replaces the bad entry with a fresh one.  The grid
        executor counts ``cache.hit``/``cache.miss`` once it has also
        checked the entry against the run's configuration.
        """
        with span("cache_lookup"):
            try:
                return Outcome.from_json(json.loads(self._path(key).read_text()))
            except (OSError, ValueError, KeyError, TypeError):
                return None  # treat corrupt/missing entries as misses

    #: Distinguishes temp files written by threads sharing one pid.
    _tmp_counter = itertools.count()

    def put(self, key: str, outcome) -> None:
        """Store one outcome atomically.

        The entry is staged to a name unique to this (process, call) —
        pid plus a monotone counter — then published with ``os.replace``.
        Concurrent writers of the same key therefore never interleave
        bytes: readers see either the old complete entry or the new one,
        and the last publisher wins (all writers compute the same value,
        so which one lands is immaterial).
        """
        data = {**Outcome(*outcome).to_json(), "kernel": self.kernel_version}
        path = self._path(key)
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{next(self._tmp_counter)}.tmp"
        )
        tmp.write_text(json.dumps(data))
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def default_cache() -> ReplicationCache | None:
    """Cache at ``$REPRO_CACHE`` if the variable is set, else None."""
    path = os.environ.get("REPRO_CACHE")
    return ReplicationCache(path) if path else None
