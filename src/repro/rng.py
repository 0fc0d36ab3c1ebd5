"""Seeded random-stream management.

Every stochastic component of the simulator (arrival process, job sizes,
dispatch randomness, feedback-message delays, ...) draws from its own
independent substream so that

* replications with different seeds are statistically independent, and
* changing one component (e.g. swapping the dispatcher) does not perturb
  the random numbers consumed by the others — the classic *common random
  numbers* variance-reduction setup used when comparing scheduling
  policies on identical arrival streams.

Streams are derived with :class:`numpy.random.SeedSequence` spawning, which
guarantees non-overlapping, well-mixed substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = ["StreamFactory", "substream", "replication_seeds"]

#: Named roles a simulation draws random numbers for.  Fixed role indices
#: (rather than spawn order) keep streams stable when a component is unused.
_ROLES = {
    "arrivals": 0,
    "sizes": 1,
    "dispatch": 2,
    "feedback": 3,
    "service": 4,
    "misc": 5,
    # Fault injection (repro.faults): index 6 is also the base of the
    # per-server fault substreams, which extend the spawn key with
    # (server, channel) — see repro.faults.models.
    "faults": 6,
}


@lru_cache(maxsize=4096)
def _pcg_state(entropy, spawn_key: tuple) -> dict:
    """Initial PCG64 state for one derived SeedSequence, memoized.

    Deriving a child sequence and mixing its entropy into generator
    state costs ~50µs; a sweep re-derives the same (seed, role) pairs
    for every member, so the mixed state is cached and each call below
    still returns a fresh, independently advancing generator.
    """
    child = np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
    return np.random.PCG64(child).state


def substream(seed: int | np.random.SeedSequence, role: str) -> np.random.Generator:
    """Return an independent generator for *role* derived from *seed*.

    The same ``(seed, role)`` pair always yields the same stream, and
    different roles never overlap.
    """
    if role not in _ROLES:
        raise KeyError(f"unknown stream role {role!r}; expected one of {sorted(_ROLES)}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    entropy = root.entropy
    if isinstance(entropy, list):
        entropy = tuple(entropy)
    bg = np.random.PCG64(0)
    bg.state = _pcg_state(entropy, (*root.spawn_key, _ROLES[role]))
    return np.random.Generator(bg)


def replication_seeds(base_seed: int, replications: int) -> list[np.random.SeedSequence]:
    """Derive one root :class:`~numpy.random.SeedSequence` per replication.

    Replication *r* of any experiment configured with ``base_seed`` gets the
    same root sequence regardless of how many total replications run, so
    adding replications never changes earlier ones.
    """
    if replications < 0:
        raise ValueError("replications must be non-negative")
    return [
        np.random.SeedSequence(entropy=base_seed, spawn_key=(r,))
        for r in range(replications)
    ]


@dataclass
class StreamFactory:
    """Convenience bundle handing out per-role generators for one replication.

    Parameters
    ----------
    seed:
        Root seed (an ``int`` or a :class:`~numpy.random.SeedSequence`,
        typically from :func:`replication_seeds`).
    """

    seed: int | np.random.SeedSequence
    _cache: dict[str, np.random.Generator] = field(default_factory=dict, repr=False)

    def get(self, role: str) -> np.random.Generator:
        """Return the cached generator for *role* (created on first use)."""
        if role not in self._cache:
            self._cache[role] = substream(self.seed, role)
        return self._cache[role]

    @property
    def arrivals(self) -> np.random.Generator:
        return self.get("arrivals")

    @property
    def sizes(self) -> np.random.Generator:
        return self.get("sizes")

    @property
    def dispatch(self) -> np.random.Generator:
        return self.get("dispatch")

    @property
    def feedback(self) -> np.random.Generator:
        return self.get("feedback")

    @property
    def service(self) -> np.random.Generator:
        return self.get("service")
