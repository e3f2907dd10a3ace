"""Weight initializers.

All initializers take an explicit :class:`numpy.random.Generator` so that
network construction is fully deterministic given a seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["he_normal", "glorot_uniform"]


def he_normal(shape: tuple[int, ...], fan_in: int,
              rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialization, suited to ReLU networks."""
    std = np.sqrt(2.0 / max(fan_in, 1))
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def glorot_uniform(shape: tuple[int, ...], fan_in: int, fan_out: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Glorot (Xavier) uniform initialization, suited to linear/softmax heads."""
    limit = np.sqrt(6.0 / max(fan_in + fan_out, 1))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)
