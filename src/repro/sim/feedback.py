"""Load-update feedback path for Dynamic Least-Load (Section 4.2).

After a job completes on a computer, the scheduler's view is refreshed
only once the computer *notices* (it checks its load index every second
→ detection delay U(0, 1)) and a load-update message crosses the network
(transfer delay exponential with mean 0.05 s).  The total notification
lag is therefore U(0,1) + Exp(0.05), averaging ≈ 0.55 s of staleness —
small against the 76.8 s mean job size but enough to deny the dispatcher
oracle knowledge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FeedbackModel", "PAPER_DETECTION_WINDOW", "PAPER_MESSAGE_DELAY_MEAN"]

#: Load-index polling period: detection delay is U(0, this).
PAPER_DETECTION_WINDOW = 1.0
#: Mean of the exponential message transfer delay.
PAPER_MESSAGE_DELAY_MEAN = 0.05


@dataclass(frozen=True)
class FeedbackModel:
    """Delay model for departure notifications.

    ``detection_window = 0`` and ``message_delay_mean = 0`` give an
    oracle scheduler (instant updates) for ablation.
    """

    detection_window: float = PAPER_DETECTION_WINDOW
    message_delay_mean: float = PAPER_MESSAGE_DELAY_MEAN

    def __post_init__(self):
        if self.detection_window < 0:
            raise ValueError(
                f"detection window must be non-negative, got {self.detection_window}"
            )
        if self.message_delay_mean < 0:
            raise ValueError(
                f"message delay mean must be non-negative, got {self.message_delay_mean}"
            )

    def sample_delay(self, rng: np.random.Generator) -> float:
        """Draw one notification delay (detection + message transfer)."""
        delay = 0.0
        if self.detection_window > 0:
            delay += rng.uniform(0.0, self.detection_window)
        if self.message_delay_mean > 0:
            delay += rng.exponential(self.message_delay_mean)
        return delay
