"""Per-primitive confidence from semantic entropy and opacity.

Confidence is the power transform
    C = (1 - min(H / h_max, 1))^p * opacity
with H the Shannon entropy (natural log) of the softmaxed logits.
Confidences are raw per-primitive scores in [0, 1]; the fusion softmax
over each cell is their only normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class ConfidenceConfig:
    h_max: float = 3.0
    sharpness: float = 3.0

    def __post_init__(self):
        if not (self.h_max > 0 and self.sharpness > 0):  # also rejects NaN
            raise InvalidInputError("h_max and sharpness must be positive")


def entropy_batch(logits: np.ndarray) -> np.ndarray:
    """Row-wise entropy of softmaxed logit rows, (N, K) -> (N,).

    Uses H = logsumexp(l) - sum p l, which is total for any finite input.
    """
    l = np.asarray(logits, dtype=np.float64)
    m = l.max(axis=-1, keepdims=True)
    e = np.exp(l - m)
    z = e.sum(axis=-1, keepdims=True)
    p = e / z
    lse = np.log(z).squeeze(-1) + m.squeeze(-1)
    return lse - (p * l).sum(axis=-1)


def confidence_values(
    logits: np.ndarray, opacities: np.ndarray, cfg: ConfidenceConfig | None = None
) -> np.ndarray:
    """Confidences for rows of logits and opacities."""
    cfg = cfg or ConfidenceConfig()
    h = entropy_batch(np.atleast_2d(logits))
    semantic = (1.0 - np.minimum(h / cfg.h_max, 1.0)) ** cfg.sharpness
    return semantic * np.asarray(opacities, dtype=np.float64)
