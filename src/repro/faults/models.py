"""Fault models: server failure/repair, speed degradation, estimate drift.

The paper's static policies assume every computer stays up at its
nominal speed sᵢ.  This module supplies the three ways that assumption
breaks in a real network, in the regime studied for heterogeneous
server pools by Gardner et al. (arXiv:2006.13987):

* **Markov on/off failures** — each server alternates exponentially
  distributed UP periods (mean ``mtbf``) and DOWN periods (mean
  ``mttr``).  A failed server loses or bounces its resident jobs (see
  :class:`RetryPolicy`) and accepts no work until repaired.
* **Transient speed degradation** — degradation episodes arrive at each
  server as a Poisson process (rate ``degrade_rate``); during an episode
  the server runs at ``degrade_factor`` times its nominal speed.
* **Stale-estimate drift** — when a failure-aware controller re-solves
  the allocation it may only have noisy speed estimates; the engine
  perturbs the speeds it reports by lognormal noise with sigma
  ``estimate_drift``.

Every stochastic element draws from *dedicated* RNG substreams derived
from the replication seed (one per server per fault channel), so a
faulty run is exactly reproducible — the failure timeline is a pure
function of ``(seed, FaultConfig, n_servers, horizon)`` and never
perturbs the arrival/size/dispatch streams.  The whole timeline is
pre-generated before the run starts, which also makes serial and
parallel executions trivially identical.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RetryPolicy",
    "FaultConfig",
    "FaultEvent",
    "build_timeline",
    "drift_stream",
]

from ..rng import _ROLES

#: Substream role index for fault processes — the "faults" role of
#: :data:`repro.rng._ROLES`, extended per server/channel below.
FAULT_ROLE = _ROLES["faults"]

#: Fault-event kinds on a timeline (engine maps these to event-queue
#: kinds).  DEGRADE events carry +1 (episode start) / 0 (episode end).
DOWN, UP, DEGRADE_START, DEGRADE_END = "down", "up", "degrade_start", "degrade_end"


@dataclass(frozen=True)
class RetryPolicy:
    """How jobs bounced by a failed server are retried.

    A job's n-th failed placement (n = 1, 2, ...) is re-dispatched after
    ``delay(n - 1)`` seconds — truncated exponential backoff — until
    ``max_attempts`` placements have failed, at which point the job is
    lost.  ``base_delay = 0`` means immediate re-dispatch to a survivor.
    The backoff schedule is deterministic (no jitter) so fault runs stay
    bit-reproducible.
    """

    max_attempts: int = 5
    base_delay: float = 1.0
    backoff: float = 2.0
    max_delay: float = 60.0

    def __post_init__(self):
        # An integer count: with NaN, ``failed >= max_attempts`` would
        # never hold and no job would ever be lost.
        try:
            max_attempts = operator.index(self.max_attempts)
        except TypeError:
            max_attempts = 0
        if isinstance(self.max_attempts, bool) or max_attempts < 1:
            raise ValueError(
                f"max_attempts must be an integer >= 1, got {self.max_attempts!r}"
            )
        object.__setattr__(self, "max_attempts", max_attempts)
        if not self.base_delay >= 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if not self.backoff >= 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if not self.max_delay >= self.base_delay:
            raise ValueError(
                f"max_delay {self.max_delay} below base_delay {self.base_delay}"
            )

    def delay(self, failed_attempts: int) -> float:
        """Wait before the next placement after *failed_attempts* failures.

        Saturates at ``max_delay`` however many attempts failed: once
        ``backoff**failed_attempts`` leaves the float range the answer
        is ``max_delay`` (0.0 when ``base_delay`` is 0).
        """
        if failed_attempts <= 0:
            return self.base_delay
        if self.base_delay == 0:
            return 0.0
        try:
            wait = self.base_delay * self.backoff**failed_attempts
        except OverflowError:
            return self.max_delay
        return min(self.max_delay, wait)


_ON_FAILURE = ("retry", "lose")


@dataclass(frozen=True)
class FaultConfig:
    """Per-run fault injection parameters (attach to ``SimulationConfig``).

    Parameters
    ----------
    mtbf:
        Mean time between failures per server (exponential UP periods).
        ``None`` disables the failure/repair process.
    mttr:
        Mean time to repair (exponential DOWN periods).
    degrade_rate:
        Poisson rate of degradation episodes per server (0 disables).
    degrade_duration:
        Mean episode length (exponential).
    degrade_factor:
        Speed multiplier during an episode, in (0, 1].
    estimate_drift:
        Sigma of the lognormal noise on the speeds a failure-aware
        controller sees when it re-solves the allocation (0 = exact).
    on_failure:
        ``"retry"`` — jobs at a failed server (and jobs dispatched to a
        down server) are re-dispatched per *retry*; ``"lose"`` — they
        are dropped immediately and counted as lost.
    retry:
        The :class:`RetryPolicy` governing re-dispatch.
    servers:
        Optional subset of server indices subject to failures and
        degradation; ``None`` means all servers.
    """

    mtbf: float | None = None
    mttr: float = 50.0
    degrade_rate: float = 0.0
    degrade_duration: float = 0.0
    degrade_factor: float = 0.5
    estimate_drift: float = 0.0
    on_failure: str = "retry"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    servers: tuple[int, ...] | None = None

    def __post_init__(self):
        # Every bound is written so that NaN fails it: a NaN mtbf would
        # keep build_timeline from ever reaching its horizon.
        if self.mtbf is not None and not self.mtbf > 0:
            raise ValueError(f"mtbf must be positive, got {self.mtbf}")
        if not self.mttr > 0:
            raise ValueError(f"mttr must be positive, got {self.mttr}")
        if not self.degrade_rate >= 0:
            raise ValueError(f"degrade_rate must be >= 0, got {self.degrade_rate}")
        if self.degrade_rate > 0 and not self.degrade_duration > 0:
            raise ValueError(
                "degrade_duration must be positive when degrade_rate > 0"
            )
        if not 0.0 < self.degrade_factor <= 1.0:
            raise ValueError(
                f"degrade_factor must lie in (0, 1], got {self.degrade_factor}"
            )
        if not self.estimate_drift >= 0:
            raise ValueError(
                f"estimate_drift must be >= 0, got {self.estimate_drift}"
            )
        if self.on_failure not in _ON_FAILURE:
            raise ValueError(
                f"on_failure must be one of {_ON_FAILURE}, got {self.on_failure!r}"
            )
        if self.servers is not None:
            object.__setattr__(
                self, "servers", tuple(int(i) for i in self.servers)
            )

    @property
    def enabled(self) -> bool:
        """Whether this configuration injects any fault at all."""
        return self.mtbf is not None or self.degrade_rate > 0

    def applies_to(self, server: int) -> bool:
        return self.servers is None or server in self.servers

    #: Every key ``parse`` accepts, in documentation order — the
    #: unknown-key error lists these so a typo (``mtr=50``) tells the
    #: user what would have been valid instead of just what was not.
    PARSE_KEYS = (
        "mtbf", "mttr", "degrade_rate", "degrade_duration",
        "degrade_factor", "drift", "on_failure", "max_attempts",
        "base_delay", "backoff", "max_delay",
    )

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Build a config from a CLI spec like ``mtbf=500,mttr=50``.

        Recognized keys: ``mtbf``, ``mttr``, ``degrade_rate``,
        ``degrade_duration``, ``degrade_factor``, ``drift``,
        ``on_failure`` (retry|lose), ``max_attempts``, ``base_delay``,
        ``backoff``, ``max_delay``.  Unknown keys fail loudly with the
        valid-key list rather than being silently ignored.
        """
        kwargs: dict = {}
        retry_kwargs: dict = {}
        seen: set[str] = set()
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"fault spec entries need key=value, got {part!r} "
                    f"(valid keys: {', '.join(cls.PARSE_KEYS)})"
                )
            key, value = (s.strip() for s in part.split("=", 1))
            # A repeated key is almost always an editing mistake; taking
            # the last occurrence silently would hide which of the two
            # values the run actually used.
            if key in seen:
                raise ValueError(
                    f"duplicate fault spec key {key!r} in {spec!r}; "
                    "each key may appear once"
                )
            seen.add(key)
            if key not in cls.PARSE_KEYS:
                raise ValueError(
                    f"unknown fault spec key {key!r}; valid keys: "
                    f"{', '.join(cls.PARSE_KEYS)}"
                )
            if key == "on_failure":
                kwargs[key] = value
                continue
            convert = int if key == "max_attempts" else float
            try:
                number = convert(value)
            except ValueError:
                kind = "an integer" if convert is int else "a number"
                raise ValueError(
                    f"fault spec key {key!r} needs {kind}, got {value!r}"
                ) from None
            if key in ("max_attempts", "base_delay", "backoff", "max_delay"):
                retry_kwargs[key] = number
            else:
                kwargs["estimate_drift" if key == "drift" else key] = number
        if retry_kwargs:
            kwargs["retry"] = RetryPolicy(**retry_kwargs)
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultEvent:
    """One pre-generated fault event on the timeline."""

    time: float
    kind: str  # DOWN / UP / DEGRADE_START / DEGRADE_END
    server: int


def _server_stream(
    seed: int | np.random.SeedSequence, server: int, channel: int
) -> np.random.Generator:
    """Dedicated generator for one (server, fault channel) pair.

    Spawn keys extend the replication root with (FAULT_ROLE, server,
    channel), so fault substreams never collide with the engine's
    arrival/size/dispatch/feedback streams or with each other.
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    child = np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=(*root.spawn_key, FAULT_ROLE, int(server), int(channel)),
    )
    return np.random.default_rng(child)


def drift_stream(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Generator for stale-estimate drift draws (one per replication).

    Distinct from every per-server channel: its spawn key has no
    (server, channel) suffix.
    """
    root = (
        seed
        if isinstance(seed, np.random.SeedSequence)
        else np.random.SeedSequence(seed)
    )
    child = np.random.SeedSequence(
        entropy=root.entropy, spawn_key=(*root.spawn_key, FAULT_ROLE)
    )
    return np.random.default_rng(child)


def build_timeline(
    faults: FaultConfig,
    n_servers: int,
    horizon: float,
    seed: int | np.random.SeedSequence,
) -> list[FaultEvent]:
    """Pre-generate every fault event in [0, horizon), time-sorted.

    Each server's failure/repair process (channel 0) and degradation
    process (channel 1) draws from its own substream, so adding or
    removing one fault channel never perturbs the other, and the
    timeline is identical however the run is executed.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    events: list[FaultEvent] = []
    for i in range(n_servers):
        if not faults.applies_to(i):
            continue
        if faults.mtbf is not None:
            rng = _server_stream(seed, i, 0)
            t = 0.0
            while True:
                t += rng.exponential(faults.mtbf)
                if t >= horizon:
                    break
                events.append(FaultEvent(t, DOWN, i))
                t += rng.exponential(faults.mttr)
                if t >= horizon:
                    break
                events.append(FaultEvent(t, UP, i))
        if faults.degrade_rate > 0:
            rng = _server_stream(seed, i, 1)
            t = 0.0
            while True:
                t += rng.exponential(1.0 / faults.degrade_rate)
                if t >= horizon:
                    break
                end = t + rng.exponential(faults.degrade_duration)
                events.append(FaultEvent(t, DEGRADE_START, i))
                if end < horizon:
                    events.append(FaultEvent(end, DEGRADE_END, i))
                t = end  # episodes never self-overlap on one server
                if t >= horizon:
                    break
    events.sort(key=lambda e: (e.time, e.server, e.kind))
    return events
