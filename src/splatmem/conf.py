"""Per-primitive confidence from semantic entropy and opacity.

The default mapping is the power transform
    C = (1 - min(H / h_max, 1))^p * opacity
with H the Shannon entropy (natural log) of the softmaxed logits. A sharp
sigmoid variant sigma(-beta (H - gamma)) * opacity is the alternative.
Confidences are raw per-primitive scores in [0, 1]; the fusion softmax
over each cell is their only normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

POWER = "power"
SHARP_SIGMOID = "sharp_sigmoid"


@dataclass(frozen=True)
class ConfidenceConfig:
    h_max: float = 3.0
    sharpness: float = 3.0
    transform: str = POWER
    sigmoid_beta: float = 10.0
    sigmoid_gamma: float = 1.5

    def __post_init__(self):
        if self.h_max <= 0 or self.sharpness <= 0:
            raise InvalidInputError("h_max and sharpness must be positive")
        if self.transform not in (POWER, SHARP_SIGMOID):
            raise InvalidInputError(f"unknown transform {self.transform!r}")


def entropy(logits) -> float:
    """Shannon entropy of softmax(logits), natural log."""
    return float(entropy_batch(np.atleast_2d(np.asarray(logits, dtype=np.float64)))[0])


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


def _semantic_factor(h: np.ndarray, cfg: ConfidenceConfig) -> np.ndarray:
    if cfg.transform == POWER:
        return (1.0 - np.minimum(h / cfg.h_max, 1.0)) ** cfg.sharpness
    # sharp sigmoid
    return 1.0 / (1.0 + np.exp(cfg.sigmoid_beta * (h - cfg.sigmoid_gamma)))


def confidence_values(
    logits: np.ndarray, opacities: np.ndarray, cfg: ConfidenceConfig | None = None
) -> np.ndarray:
    """Confidences for rows of logits and opacities."""
    cfg = cfg or ConfidenceConfig()
    h = entropy_batch(np.atleast_2d(logits))
    return _semantic_factor(h, cfg) * np.asarray(opacities, dtype=np.float64)


def confidence(g, cfg: ConfidenceConfig | None = None) -> float:
    """Confidence of a single primitive, in [0, 1]."""
    return float(confidence_values(g.logits[None, :], np.array([g.opacity]), cfg)[0])
