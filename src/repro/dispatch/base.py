"""Job-dispatching interfaces (the paper's Section 3).

A *dispatcher* realizes an allocation α job-by-job: as each job arrives
it names the computer that must run it.  Static dispatchers (random,
round-robin) decide from the arrival sequence alone; the Dynamic
Least-Load yardstick additionally consumes load feedback delivered by
the simulation engine through :meth:`Dispatcher.on_load_update`.
"""

from __future__ import annotations

import abc

import numpy as np

from ..queueing.network import validate_allocation

__all__ = ["Dispatcher", "StaticDispatcher"]


class Dispatcher(abc.ABC):
    """Strategy object splitting the arrival stream into n substreams."""

    #: Short name used in experiment tables ("random", "round_robin", ...).
    name: str = "base"

    #: True when decisions depend only on the arrival sequence — such
    #: dispatchers are eligible for the vectorized fast simulation path.
    is_static: bool = True

    def __init__(self):
        self.alphas: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def reset(self, alphas) -> None:
        """(Re)initialize for a run with workload fractions *alphas*."""
        self.alphas = validate_allocation(alphas)
        self._setup()

    def _setup(self) -> None:
        """Hook for subclass state initialization (alphas already set)."""

    def _require_reset(self) -> np.ndarray:
        if self.alphas is None:
            raise RuntimeError(
                f"{type(self).__name__}.reset(alphas) must be called before dispatching"
            )
        return self.alphas

    @property
    def n(self) -> int:
        return int(self._require_reset().size)

    # ------------------------------------------------------------------
    # Dispatching
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def select(self, size: float) -> int:
        """Return the index of the computer that runs the arriving job.

        *size* is the job's service demand; static policies other than
        the clairvoyant SITA extension ignore it (the paper's schemes do
        not assume sizes are known a priori).
        """

    def select_batch(self, sizes: np.ndarray) -> np.ndarray:
        """Vectorizable bulk form of :meth:`select` (same semantics).

        The default loops; subclasses override when a faster kernel
        exists (e.g. one multinomial draw for the random dispatcher).
        """
        sizes = np.asarray(sizes, dtype=float)
        return np.fromiter(
            (self.select(float(x)) for x in sizes), dtype=np.int64, count=sizes.size
        )

    # ------------------------------------------------------------------
    # Feedback hooks (dynamic policies only)
    # ------------------------------------------------------------------

    @property
    def wants_feedback(self) -> bool:
        """Whether the engine should deliver delayed departure messages.

        Defaults to "every dynamic dispatcher"; time-driven adaptive
        policies that only observe arrivals override this to False.
        """
        return not self.is_static

    def observe_arrival(self, now: float) -> None:
        """The engine's wall-clock notification of an arriving job,
        invoked just before :meth:`select`.  No-op by default; adaptive
        policies use it to drive periodic re-estimation."""

    def on_load_update(self, server: int) -> None:
        """A delayed job-departure notification reached the scheduler.

        No-op for static dispatchers.
        """

    def on_membership_change(
        self, up: np.ndarray, utilization: float, speeds=None
    ) -> None:
        """A server failed or was repaired (fault injection only).

        *up* is the boolean liveness mask, *utilization* the offered
        load relative to the surviving capacity, and *speeds* the
        (possibly drift-perturbed) speed estimates.  No-op by default —
        oblivious policies keep dispatching blindly; the failure-aware
        wrapper (:class:`repro.faults.FailureAwareDispatcher`)
        re-solves the allocation here.
        """


class StaticDispatcher(Dispatcher):
    """Marker base for dispatchers that never use feedback."""

    is_static = True
