"""Deterministic forward-only attention machinery.

Covers the seeded weight bundle (a run rebuilds it from ENCODER_SEED,
never reads it from a file), plain multi-head attention (float32 scores
against keys relative to the first key, base-2 exponentials, and a
row-max pass only in a head whose scores could leave float32 range),
cross-attention with dual confidence modulation (values scaled by
key-side confidence, concatenated heads scaled by query-side confidence
before the output projection), the attention + FFN block, and the
dual-stream temporal encoder step. The encoder refines features only:
means, scales, rotations, opacities and logits pass through it as the
same arrays, so each row keeps the confidence they give it. Each
residual is followed by a parameter-free layer norm (post-norm, Ba et
al. 2016), so refined features keep a per-row RMS of at most 1 however
many frames they pass through; without it they grow about 4x per frame
and leave float32 range within 70 frames. No masking, no gradients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import D_MODEL, PrimitiveBatch
from .errors import InvalidInputError

# Attention heads, FFN width, depth in blocks and weight seed of the encoder.
N_HEADS = 4
D_FF = 64
N_BLOCKS = 2
ENCODER_SEED = 42
# Query rows per attention block; the score buffer is _BLOCK_ROWS x M.
_BLOCK_ROWS = 128
# Largest bound on log2 of a head's value product that mha runs without
# subtracting each row's max score; float32 overflows at 2**128.
_EXP2_LIMIT = 100.0
_NORM_EPS = 1e-5


@dataclass(repr=False)
class EncoderWeights:
    """Seeded parameter bundle for the attention and FFN blocks.

    All entries are drawn from numpy's default_rng(seed) as standard
    normals scaled by 1/sqrt(D_MODEL), in declaration order (W_q, W_k,
    W_v, W_o, ffn_w1, ffn_b1, ffn_w2, ffn_b2), then rounded to float32.
    The tests pin the float32 bytes of seed 42.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ffn_w1: np.ndarray
    ffn_b1: np.ndarray
    ffn_w2: np.ndarray
    ffn_b2: np.ndarray


def init_weights(seed: int) -> EncoderWeights:
    """Deterministic weight bundle; the same seed always gives the same bytes."""
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(D_MODEL)

    def draw(*shape):
        return (rng.standard_normal(shape) * scale).astype(np.float32).astype(np.float64)

    return EncoderWeights(
        w_q=draw(D_MODEL, D_MODEL),
        w_k=draw(D_MODEL, D_MODEL),
        w_v=draw(D_MODEL, D_MODEL),
        w_o=draw(D_MODEL, D_MODEL),
        ffn_w1=draw(D_MODEL, D_FF),
        ffn_b1=draw(D_FF),
        ffn_w2=draw(D_FF, D_MODEL),
        ffn_b2=draw(D_MODEL),
    )


def mha(Q: np.ndarray, K: np.ndarray, V: np.ndarray, n_heads: int) -> np.ndarray:
    """Multi-head attention, heads concatenated, no output projection.

    Q is (N, d); K and V are (M, d). Each head scores its queries against
    its keys relative to the first key, K_h - K_h[0]. Softmax ignores a
    per-row shift, and the first key's score is then exactly 0, so every
    row holds one weight of exactly 1 and its denominator is at least 1.
    The shift and log2(e)/sqrt(dh) (base-2 scores, so the exponential is
    exp2) are folded into K and Q in float64; the attention then runs in
    float32 (mixed precision, Micikevicius et al. 2018) and returns
    float64. Each head runs over blocks of _BLOCK_ROWS query rows in one
    reused (block, M) float32 score buffer, so the peak score memory is
    _BLOCK_ROWS x M x 4 bytes (512 KiB at M = 1024) instead of an
    (H, N, M) tensor. A block takes the score product, exp2, the product
    with V and a product with a ones vector, which gives each row's
    denominator, and each row is normalised after the product with V
    (FlashAttention's deferred normalisation, Dao et al. 2022). The
    denominator is not a ones column of V: a matrix product sums each
    column in one float32 accumulator, which drops the small weights
    after a weight near 1. A head whose bound on log2 of its value
    product, max|q_r| * max|k_j - k_0| + log2(M * max(max|V_h|, 1)),
    passes _EXP2_LIMIT also subtracts each row's max score before exp2,
    so the output stays finite for any finite input.
    """
    Q, K, V = (np.asarray(a, dtype=np.float64) for a in (Q, K, V))
    if Q.ndim != 2 or K.ndim != 2 or V.ndim != 2:
        raise InvalidInputError("mha expects 2-d arrays")
    n, d = Q.shape
    m = K.shape[0]
    if m == 0:
        raise InvalidInputError("mha needs at least one key/value row")
    if K.shape[1] != d or V.shape != K.shape:
        raise InvalidInputError("mha shape mismatch")
    if d % n_heads != 0:
        raise InvalidInputError(f"d={d} not divisible by n_heads={n_heads}")
    dh = d // n_heads
    Q = Q * (np.log2(np.e) / np.sqrt(dh))
    K = K - K[0]
    bounds = (np.linalg.norm(Q.reshape(n, n_heads, dh), axis=2).max(axis=0)
              * np.linalg.norm(K.reshape(m, n_heads, dh), axis=2).max(axis=0)
              + np.log2(m * np.maximum(np.abs(V).reshape(m, n_heads, dh).max(axis=(0, 2)), 1.0)))
    q32 = Q.astype(np.float32)
    k32 = K.astype(np.float32)
    v32 = V.astype(np.float32)
    ones = np.ones(m, dtype=np.float32)
    out = np.empty((n, d))
    buf = np.empty((min(n, _BLOCK_ROWS), m), dtype=np.float32)
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        kt = np.ascontiguousarray(k32[:, cols].T)        # (dh, M)
        vh = np.ascontiguousarray(v32[:, cols])          # (M, dh)
        for a in range(0, n, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, n)
            s = buf[: b - a]
            np.matmul(q32[a:b, cols], kt, out=s)
            if bounds[h] > _EXP2_LIMIT:
                s -= s.max(axis=1, keepdims=True)
            np.exp2(s, out=s)
            out[a:b, cols] = (s @ vh) / (s @ ones)[:, None]
    return out


def cca(qf: np.ndarray, qc: np.ndarray, kf: np.ndarray, kc: np.ndarray,
        w: EncoderWeights) -> np.ndarray:
    """Confidence-modulated cross attention of query rows to key rows.

    qf (N, D_MODEL) and kf (M, D_MODEL) are features, qc (N,) and kc (M,)
    confidences. Values are scaled row-wise by the key-side confidences
    after the linear projection; the concatenated head output is scaled by
    the query-side confidences before the final W_o projection.
    """
    if len(qf) == 0 or len(kf) == 0:
        raise InvalidInputError("cca needs at least one query and one key row")
    if qf.shape[1] != D_MODEL or kf.shape[1] != D_MODEL:
        raise InvalidInputError(f"cca needs features {D_MODEL} wide, the encoder's width")
    V = (kf @ w.w_v) * kc[:, None]
    out = mha(qf @ w.w_q, kf @ w.w_k, V, N_HEADS)
    return (out * qc[:, None]) @ w.w_o


def _norm(x: np.ndarray) -> np.ndarray:
    """Row-wise layer norm without gain or bias, in float64."""
    x = x - x.mean(axis=1, keepdims=True)
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + _NORM_EPS)


def _ffn(x: np.ndarray, w: EncoderWeights) -> np.ndarray:
    return np.maximum(x @ w.ffn_w1 + w.ffn_b1, 0.0) @ w.ffn_w2 + w.ffn_b2


def temporal_encoder_block(qf: np.ndarray, qc: np.ndarray, kf: np.ndarray,
                           kc: np.ndarray, w: EncoderWeights) -> np.ndarray:
    """One attention + FFN block over the arrays `cca` takes; returns the
    refined query feature rows.

    Post-norm residual chain on features (norm(x + cca), then
    norm(f1 + FFN(f1))), so every output row has RMS at most 1.
    """
    f1 = _norm(qf + cca(qf, qc, kf, kc, w))
    return _norm(f1 + _ffn(f1, w))


def dte_step(current: PrimitiveBatch, history: PrimitiveBatch,
             w: EncoderWeights) -> tuple[PrimitiveBatch, PrimitiveBatch]:
    """Dual-stream temporal refinement of features with shared weights.

    Stream A queries history with the current batch, stream B the reverse;
    both streams update synchronously per block, N_BLOCKS times, so
    swapping the inputs swaps the outputs exactly. Each stream's
    confidences are read once: no block changes them. Each output is its
    input batch with only the features replaced. An empty history
    degenerates to N_BLOCKS of self-attention on the current batch. An
    empty current batch has nothing to refine or to attend from, so both
    inputs come back unchanged, the same objects.
    """
    if len(current) == 0:
        return current, history
    a, ac = current.features, current.confidences
    if len(history) == 0:
        for _ in range(N_BLOCKS):
            a = temporal_encoder_block(a, ac, a, ac, w)
        return replace(current, features=a), history
    b, bc = history.features, history.confidences
    for _ in range(N_BLOCKS):
        a, b = (temporal_encoder_block(a, ac, b, bc, w),
                temporal_encoder_block(b, bc, a, ac, w))
    return replace(current, features=a), replace(history, features=b)
