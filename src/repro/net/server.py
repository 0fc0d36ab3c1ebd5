"""Server stub: replays dispatched window slices, reports completions.

One stub models one machine of the pool.  It owns exactly the state a
real FCFS worker needs across windows — the time it frees up — and
replays each DISPATCH slice with :func:`repro.sim.fastpath.lindley_window`,
the same per-server recursion the in-process :class:`ServerBank` runs
(bit-identical, by construction).  Everything else (membership,
estimation, allocation) lives in the orchestrator; the stub is
deliberately dumb so the equivalence argument stays small.

The stub is sans-IO: :meth:`handle_dispatch` maps one DISPATCH to its
one reply, the COMPLETE.  The socket runtime calls it from its
connection's ``data_received`` callback; the in-process transport calls
it directly.

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

from ..sim.fastpath import lindley_window
from .protocol import Complete, Dispatch, Register

__all__ = ["ServerStub", "ServerDead"]


class ServerDead(RuntimeError):
    """Raised when a dispatch reaches a stub past its scripted death."""


class ServerStub:
    """Per-server FCFS replay worker with carried backlog."""

    def __init__(
        self,
        server_id: int,
        speed: float,
        *,
        die_after_window: int | None = None,
        hang_after_window: int | None = None,
        incarnation: int = 0,
    ):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.server_id = int(server_id)
        self.speed = float(speed)
        self.free_at = 0.0
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
        times, sizes = msg.times, msg.sizes
        dep, svc, self.free_at = lindley_window(
            times, sizes, self.speed, self.free_at
        )
        self.windows_replayed += 1
        self.jobs_replayed += int(times.size)
        return Complete(
            window=msg.window,
            server=self.server_id,
            departures=dep,
            service_times=svc,
        )
