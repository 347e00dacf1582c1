"""Per-primitive confidence from semantic entropy and opacity.

Confidence is the power transform
    C = (1 - min(H / H_MAX, 1))^SHARPNESS * opacity
with H the Shannon entropy (natural log) of the softmaxed logits. The two
constants are fixed, so a confidence is a function of a row's logits and
opacity alone: `PrimitiveBatch.confidences` computes it on each read, and
neither a batch nor a `.gmem` checkpoint stores it. Confidences are raw
per-primitive scores in [0, 1]; the fusion softmax over each cell is
their only normalization.
"""

from __future__ import annotations

import numpy as np

H_MAX = 3.0
SHARPNESS = 3.0


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


def confidence_values(logits: np.ndarray, opacities: np.ndarray) -> np.ndarray:
    """Confidences for rows of logits and opacities."""
    h = entropy_batch(np.atleast_2d(logits))
    semantic = (1.0 - np.minimum(h / H_MAX, 1.0)) ** SHARPNESS
    return semantic * np.asarray(opacities, dtype=np.float64)
