"""Event calendar for the discrete-event engine.

A thin wrapper over :mod:`heapq` with a monotonically increasing
sequence number as tie-breaker so simultaneous events process in
insertion order (deterministic across platforms).  Server departure
events carry a *version* token; the server bumps its version whenever
its schedule changes, which lazily invalidates superseded events —
cheaper than removing them from the heap.
"""

from __future__ import annotations

import heapq
from enum import IntEnum

__all__ = ["EventKind", "EventQueue"]


class EventKind(IntEnum):
    """Event types handled by the engine (order = same-time priority)."""

    #: A job completes on a server (payload: server index, version).
    DEPARTURE = 0
    #: A new job enters the system (payload unused).
    ARRIVAL = 1
    #: A delayed load-update message reaches the scheduler
    #: (payload: server index).
    LOAD_UPDATE = 2
    #: Fault injection (repro.faults): a server fails
    #: (payload: server index).
    SERVER_DOWN = 4
    #: Fault injection: a failed server comes back up
    #: (payload: server index).
    SERVER_UP = 5
    #: Fault injection: a degradation episode starts/ends
    #: (payload: server index, 1 = start / 0 = end).
    SERVER_DEGRADE = 6
    #: Fault injection: a bounced job re-enters dispatch
    #: (payload: retry ticket id).
    RETRY = 7


class EventQueue:
    """Min-heap of (time, kind, seq, a, b) tuples.

    ``a``/``b`` are small integer payload slots (server index, version);
    keeping events as plain tuples avoids per-event object overhead in
    the hot loop.  Departures sort before arrivals at identical times so
    a server freed at time t can immediately take a job arriving at t.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self):
        self._heap: list[tuple[float, int, int, int, int]] = []
        self._seq = 0

    def push(self, time: float, kind: EventKind, a: int = 0, b: int = 0) -> None:
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self._seq += 1
        heapq.heappush(self._heap, (time, int(kind), self._seq, a, b))

    def pop(self) -> tuple[float, int, int, int]:
        """Return (time, kind, a, b) of the earliest event."""
        time, kind, _seq, a, b = heapq.heappop(self._heap)
        return time, kind, a, b

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
