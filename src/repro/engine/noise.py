"""Operating-system interference model (paper Section 3.3.3).

Real runs suffer jitter and occasional large peaks (memory flushes,
daemon wakeups) -- Figure 11 shows one at run 30.  The convergence
algorithm must tolerate both, so the simulator can inject them
deterministically from a seeded generator.
"""

from __future__ import annotations

import numpy as np

from ..config import NoiseConfig


class NoiseModel:
    """Draws a per-operator work multiplier."""

    def __init__(self, config: NoiseConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self.peaks_injected = 0
        #: ``config.enabled``, read once: every dispatch asks.
        self.enabled = config.enabled

    def factor(self) -> float:
        """Multiplier >= some small positive bound; 1.0 when disabled."""
        if not self.enabled:
            return 1.0
        factor = 1.0
        if self.config.jitter > 0:
            factor += self.config.jitter * float(self.rng.uniform(-1.0, 1.0))
        if self.config.peak_probability > 0 and self.config.peak_magnitude > 0:
            if self.rng.random() < self.config.peak_probability:
                factor *= 1.0 + float(self.rng.uniform(0.0, 1.0)) * self.config.peak_magnitude
                self.peaks_injected += 1
        return max(factor, 0.05)
