"""Seeded weight initializers."""

from __future__ import annotations

import numpy as np


def kaiming_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int
) -> np.ndarray:
    """He/Kaiming uniform init, suited to ReLU networks."""
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))
