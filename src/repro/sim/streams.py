"""Shared arrival/size stream materialization for cell-batched runs.

Under common random numbers every policy evaluated at one (config, seed)
point consumes the *same* stage-1 streams — the arrival instants and job
sizes drawn from the "arrivals" and "sizes" substream roles.  Evaluating
a sweep cell policy-by-policy therefore re-samples identical arrays once
per policy.  This module materializes each replication's streams exactly
once and shares them:

* :func:`materialize_streams` — the one stage-1 sampler.
  :func:`~repro.sim.fastpath.run_static_simulation` draws through it
  too, and single runs, cell batches and trace replays share one
  stage-3 call, so pooled arrays replay to the bits of a private run;
* :class:`StreamPool` — in-process LRU memo handing out read-only views
  (zero-copy across the policies of a cell);
* :class:`SharedStreamPool` / :func:`attach_streams` — cross-process
  sharing over :mod:`multiprocessing.shared_memory`: the parent
  materializes once, workers map the segments and replay without
  re-sampling or pickling multi-megabyte arrays.  The parent owns every
  segment and unlinks them all in ``close()`` (or on context exit), so
  a crashed worker can never leak ``/dev/shm`` space.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..obs import counters
from ..obs.spans import span
from ..rng import StreamFactory
from .config import SimulationConfig

__all__ = [
    "materialize_streams",
    "stream_signature",
    "StreamPool",
    "SharedStreamPool",
    "StreamHandle",
    "attach_streams",
]


def materialize_streams(
    config: SimulationConfig, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 of the static fast path: all arrivals and sizes up front.

    The draws :func:`~repro.sim.fastpath.run_static_simulation` makes
    through this same function — same substream roles, same chunked
    samplers — so the arrays are bit-identical to an unpooled run with
    the same (config, seed).
    """
    with span("materialize") as sp:
        streams = StreamFactory(seed)
        workload = config.workload()
        times = workload.arrival_stream(streams.arrivals).arrivals_until(
            config.duration
        )
        sizes = workload.sample_sizes(streams.sizes, times.size)
        sp.set(jobs=int(times.size))
        counters.inc("streams.jobs_materialized", value=int(times.size))
        return times, sizes


def stream_signature(config: SimulationConfig) -> tuple:
    """The config fields that shape stage-1 streams (pool cache key).

    Dispatch- and discipline-related fields are deliberately absent:
    two configs differing only there draw identical streams and share a
    pool entry.
    """
    return (
        tuple(float(s) for s in config.speeds),
        float(config.utilization),
        float(config.duration),
        repr(config.size_distribution),
        float(config.arrival_cv),
        repr(config.rate_profile),
    )


def _seed_signature(seed) -> tuple:
    if isinstance(seed, np.random.SeedSequence):
        return (seed.entropy, tuple(seed.spawn_key))
    return (int(seed), ())


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class StreamPool:
    """In-process memo of materialized (times, sizes) stream pairs.

    Entries are read-only arrays shared zero-copy across every policy
    replayed at the same (config, seed); the LRU bound keeps at most
    ``max_entries`` replications resident.
    """

    def __init__(self, max_entries: int = 8):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def _key(self, config: SimulationConfig, seed) -> tuple:
        return (stream_signature(config), _seed_signature(seed))

    def get(
        self, config: SimulationConfig, seed
    ) -> tuple[np.ndarray, np.ndarray]:
        """The (times, sizes) pair for one replication, memoized."""
        key = self._key(config, seed)
        entry = self._entries.pop(key, None)
        if entry is None:
            counters.inc("streams.pool_miss")
            times, sizes = materialize_streams(config, seed)
            entry = (_freeze(times), _freeze(sizes))
        else:
            counters.inc("streams.pool_hit")
        self._entries[key] = entry  # re-insert: dict order tracks LRU
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        return entry

    def prime(
        self, config: SimulationConfig, seed, times: np.ndarray, sizes: np.ndarray
    ) -> None:
        """Insert externally materialized streams (e.g. shared-memory
        views attached by a grid worker) under their pool key."""
        self._entries[self._key(config, seed)] = (_freeze(times), _freeze(sizes))
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))


@dataclass(frozen=True)
class StreamHandle:
    """Picklable reference to one replication's shared-memory streams."""

    times_name: str
    sizes_name: str
    count: int


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker registration.

    The *parent* pool owns every segment's unlink; letting the attach
    register it too would double-book the resource tracker (spurious
    cleanup warnings, and under fork a KeyError in the shared tracker
    when both sides unregister).  Python 3.13 grew ``track=False`` for
    exactly this; on earlier versions the workaround is to mute the
    register call during attach.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class _AttachedStreams:
    """Worker-side view of a :class:`StreamHandle` (close when done)."""

    def __init__(self, handle: StreamHandle):
        self._times_shm = _attach_untracked(handle.times_name)
        self._sizes_shm = _attach_untracked(handle.sizes_name)
        n = handle.count
        self.times = _freeze(
            np.ndarray(n, dtype=np.float64, buffer=self._times_shm.buf)
        )
        self.sizes = _freeze(
            np.ndarray(n, dtype=np.float64, buffer=self._sizes_shm.buf)
        )

    def close(self) -> None:
        """Unmap the segments (the arrays become invalid)."""
        # Views pin the exported buffer; drop them before closing.
        self.times = None
        self.sizes = None
        self._times_shm.close()
        self._sizes_shm.close()

    def __enter__(self) -> "_AttachedStreams":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach_streams(handle: StreamHandle) -> _AttachedStreams:
    """Map a parent's shared streams into this process (read-only)."""
    return _AttachedStreams(handle)


class SharedStreamPool:
    """Parent-side owner of shared-memory stream segments.

    ``share()`` materializes one replication's streams straight into
    fresh segments and returns a picklable :class:`StreamHandle`;
    ``close()`` — always reached via the context manager's ``finally``
    — closes *and unlinks* every segment, whether or not the workers
    holding them crashed.
    """

    def __init__(self):
        self._segments: list[shared_memory.SharedMemory] = []

    def _export(self, arr: np.ndarray) -> shared_memory.SharedMemory:
        shm = shared_memory.SharedMemory(create=True, size=max(1, arr.nbytes))
        self._segments.append(shm)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[:] = arr
        del view  # release the exported buffer before any later close()
        return shm

    def share(self, config: SimulationConfig, seed) -> StreamHandle:
        """Materialize one replication's streams into shared memory."""
        times, sizes = materialize_streams(config, seed)
        times_shm = self._export(times)
        sizes_shm = self._export(sizes)
        return StreamHandle(
            times_name=times_shm.name,
            sizes_name=sizes_shm.name,
            count=int(times.size),
        )

    def close(self) -> None:
        """Close and unlink every segment this pool ever created."""
        segments, self._segments = self._segments, []
        for shm in segments:
            try:
                shm.close()
            except OSError:
                pass
            try:
                shm.unlink()
            except (OSError, FileNotFoundError):
                pass

    def __enter__(self) -> "SharedStreamPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
