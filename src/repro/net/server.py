"""Server stub: replays dispatched window slices, reports completions.

One stub models one machine of the pool, and it models it with the
service's own server: a one-server :class:`~repro.service.replay.ServerBank`.
Each DISPATCH slice goes through the bank's one FCFS window entry,
:meth:`~repro.service.replay.ServerBank.replay_window_grouped` — the
compiled carry-state sweep, or its numpy fallback — so the stub runs
the same bits as the in-process service and keeps no replay code or
backlog of its own.  Everything else (membership, estimation,
allocation) lives in the orchestrator; the stub is deliberately dumb so
the equivalence argument stays small.

The stub is sans-IO: :meth:`handle_dispatch` maps one DISPATCH to its
one reply, the COMPLETE, whose arrays the reply owns.  The socket
runtime calls it from its connection's ``data_received`` callback; the
in-process transport calls it directly.

``die_after_window`` scripts the chaos drill: after replying to that
window the stub "crashes" (drops its connection / refuses further
dispatches), which the orchestrator must detect within one control
period.  ``hang_after_window`` scripts the nastier failure mode: the
stub keeps its connection open but stops replying, so only the
orchestrator's reply timeout can catch it.  A *restarted* stub is a
fresh :class:`ServerStub` with ``incarnation`` bumped — new process,
empty backlog — that re-registers with the orchestrator at a scripted
rejoin window.
"""

from __future__ import annotations

import numpy as np

from ..service.replay import ServerBank
from .protocol import Complete, Dispatch, Register

__all__ = ["ServerStub", "ServerDead"]


class ServerDead(RuntimeError):
    """Raised when a dispatch reaches a stub past its scripted death."""


class ServerStub:
    """Per-server FCFS replay worker: a one-server bank behind the wire."""

    def __init__(
        self,
        server_id: int,
        speed: float,
        *,
        die_after_window: int | None = None,
        hang_after_window: int | None = None,
        incarnation: int = 0,
    ):
        self.bank = ServerBank([speed])
        self.server_id = int(server_id)
        self.speed = float(speed)
        self.windows_replayed = 0
        self.jobs_replayed = 0
        self.die_after_window = die_after_window
        self.hang_after_window = hang_after_window
        self.incarnation = int(incarnation)

    def dead_at(self, window: int) -> bool:
        """Whether the scripted crash has happened before *window*."""
        return (
            self.die_after_window is not None
            and window > self.die_after_window
        )

    def hangs_at(self, window: int) -> bool:
        """Whether the scripted hang has started before *window*.

        A hung stub swallows dispatches without replying — the
        connection stays open, so only the orchestrator's reply
        timeout can declare it dead.
        """
        return (
            self.hang_after_window is not None
            and window > self.hang_after_window
        )

    def register(self, *, window: int = 0) -> Register:
        """The hello sent on connect; *window* is the first live window.

        The initial connect registers for window 0; a restarted stub
        (``incarnation > 0``) registers for its scripted rejoin window,
        which the orchestrator applies at that window boundary.
        """
        return Register(
            server=self.server_id,
            speed=self.speed,
            window=int(window),
            incarnation=self.incarnation,
        )

    def handle_dispatch(self, msg: Dispatch) -> Complete:
        """Replay one window slice; answer its COMPLETE."""
        if msg.server != self.server_id:
            raise ValueError(
                f"dispatch for server {msg.server} reached stub {self.server_id}"
            )
        if self.dead_at(msg.window):
            raise ServerDead(
                f"server {self.server_id} died after window {self.die_after_window}"
            )
        # A frame's arrays are read-only views: the compiled call takes
        # such an array's address in ~2 µs, a private copy's in < 1 µs.
        times = msg.times.copy()
        dep, svc, _, _ = self.bank.replay_window_grouped(
            np.zeros(times.size, dtype=np.int64), times, msg.sizes.copy()
        )
        self.windows_replayed += 1
        self.jobs_replayed += int(times.size)
        return Complete(
            window=msg.window,
            server=self.server_id,
            departures=dep.copy(),
            service_times=svc.copy(),
        )
