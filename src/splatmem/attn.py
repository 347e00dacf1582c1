"""Deterministic forward-only attention machinery.

Covers seeded weight bundles, plain multi-head attention, cross-attention
with dual confidence modulation (values scaled by key-side confidence,
concatenated heads scaled by query-side confidence before the output
projection), the FFN + refinement block, and the dual-stream temporal
encoder step. No layer norm, no masking, no gradients.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .conf import ConfidenceConfig, confidence_values
from .core import MIN_SCALE, NUM_CLASSES, GaussianPrimitive
from .errors import FormatError, InvalidInputError

_OPACITY_EPS = 1e-6
_QUAT_EPS = 1e-8
# Query rows per attention block; the score buffer is _BLOCK_ROWS x M.
_BLOCK_ROWS = 128

WTS_MAGIC = b"TGSW"
WTS_VERSION = 1
_WTS_HEADER = struct.Struct("<4sI4IQ")  # magic, version, d_model, n_heads, d_ff, C, seed


@dataclass
class PrimitiveBatch:
    """A set of primitives with their feature rows and confidences.

    Arrays: means (N,3), scales (N,3), rotations (N,4), opacities (N,),
    logits (N,C-1), features (N,d), confidences (N,).
    """

    means: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    logits: np.ndarray
    features: np.ndarray
    confidences: np.ndarray

    def __post_init__(self):
        for name in ("means", "scales", "rotations", "opacities", "logits",
                     "features", "confidences"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.means)
        for name in ("scales", "rotations", "opacities", "logits", "features", "confidences"):
            if len(getattr(self, name)) != n:
                raise InvalidInputError(f"batch field {name} has mismatched length")
        if n and (np.min(self.confidences) < -1e-12 or np.max(self.confidences) > 1 + 1e-12):
            raise InvalidInputError("confidences must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.means)

    @property
    def d_model(self) -> int:
        return self.features.shape[1]

    @property
    def n_logits(self) -> int:
        return self.logits.shape[1]

    @classmethod
    def empty(cls, d_model: int, n_classes: int = NUM_CLASSES) -> "PrimitiveBatch":
        z = np.zeros
        return cls(z((0, 3)), z((0, 3)), z((0, 4)), z(0), z((0, n_classes - 1)),
                   z((0, d_model)), z(0))

    @classmethod
    def from_primitives(
        cls,
        primitives: list[GaussianPrimitive],
        features: np.ndarray | None = None,
        confidences: np.ndarray | None = None,
        conf_cfg: ConfidenceConfig | None = None,
    ) -> "PrimitiveBatch":
        prims = list(primitives)
        if not prims:
            raise InvalidInputError("cannot build a batch from zero primitives")
        logits = np.stack([g.logits for g in prims])
        opac = np.array([g.opacity for g in prims])
        if features is None:
            features = np.stack([g.feature for g in prims])
        if confidences is None:
            confidences = confidence_values(logits, opac, conf_cfg)
        return cls(
            np.stack([g.mean for g in prims]),
            np.stack([g.scale for g in prims]),
            np.stack([g.rotation for g in prims]),
            opac,
            logits,
            np.asarray(features, dtype=np.float64),
            np.asarray(confidences, dtype=np.float64),
        )

    def primitives(self) -> list[GaussianPrimitive]:
        return [
            GaussianPrimitive(self.means[i], self.scales[i], self.rotations[i],
                              float(self.opacities[i]), self.logits[i], self.features[i])
            for i in range(len(self))
        ]

    def copy(self) -> "PrimitiveBatch":
        return PrimitiveBatch(*(np.array(getattr(self, f)) for f in (
            "means", "scales", "rotations", "opacities", "logits", "features",
            "confidences")))

    def select(self, idx) -> "PrimitiveBatch":
        return PrimitiveBatch(*(getattr(self, f)[idx] for f in (
            "means", "scales", "rotations", "opacities", "logits", "features",
            "confidences")))


def concat_batches(a: PrimitiveBatch, b: PrimitiveBatch) -> PrimitiveBatch:
    if len(a) == 0:
        return b.copy()
    if len(b) == 0:
        return a.copy()
    return PrimitiveBatch(*(
        np.concatenate([getattr(a, f), getattr(b, f)]) for f in (
            "means", "scales", "rotations", "opacities", "logits", "features",
            "confidences")))


@dataclass
class EncoderWeights:
    """Seeded parameter bundle for the attention and refinement blocks.

    All entries are drawn from numpy's default_rng(seed) as standard
    normals scaled by 1/sqrt(d_model), in declaration order (W_q, W_k,
    W_v, W_o, ffn_w1, ffn_b1, ffn_w2, ffn_b2, refine_w, refine_b), then
    rounded to float32 so a weight file reproduces the bundle bit-exactly.
    """

    d_model: int
    n_heads: int
    d_ff: int
    n_classes: int
    seed: int
    w_q: np.ndarray = field(repr=False, default=None)
    w_k: np.ndarray = field(repr=False, default=None)
    w_v: np.ndarray = field(repr=False, default=None)
    w_o: np.ndarray = field(repr=False, default=None)
    ffn_w1: np.ndarray = field(repr=False, default=None)
    ffn_b1: np.ndarray = field(repr=False, default=None)
    ffn_w2: np.ndarray = field(repr=False, default=None)
    ffn_b2: np.ndarray = field(repr=False, default=None)
    refine_w: np.ndarray = field(repr=False, default=None)
    refine_b: np.ndarray = field(repr=False, default=None)

    MATRIX_FIELDS = ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_b1", "ffn_w2",
                     "ffn_b2", "refine_w", "refine_b")

    @property
    def refine_dim(self) -> int:
        # mean 3 + log-scale 3 + quat 4 + opacity logit 1 + class logits
        return 11 + (self.n_classes - 1)

    def with_zero_refinement(self) -> "EncoderWeights":
        """Copy with the refinement head zeroed (features still update)."""
        return replace(
            self,
            refine_w=np.zeros_like(self.refine_w),
            refine_b=np.zeros_like(self.refine_b),
        )


def init_weights(
    d_model: int = 32,
    n_heads: int = 4,
    d_ff: int = 64,
    n_classes: int = NUM_CLASSES,
    seed: int = 0,
) -> EncoderWeights:
    """Deterministic weight bundle; same arguments always give same bytes."""
    if d_model <= 0 or n_heads <= 0 or d_ff <= 0 or n_classes < 2:
        raise InvalidInputError("dimensions must be positive (and n_classes >= 2)")
    if d_model % n_heads != 0:
        raise InvalidInputError(f"d_model {d_model} not divisible by n_heads {n_heads}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d_model)

    def draw(*shape):
        return (rng.standard_normal(shape) * scale).astype(np.float32).astype(np.float64)

    refine_dim = 11 + (n_classes - 1)
    return EncoderWeights(
        d_model, n_heads, d_ff, n_classes, seed,
        w_q=draw(d_model, d_model),
        w_k=draw(d_model, d_model),
        w_v=draw(d_model, d_model),
        w_o=draw(d_model, d_model),
        ffn_w1=draw(d_model, d_ff),
        ffn_b1=draw(d_ff),
        ffn_w2=draw(d_ff, d_model),
        ffn_b2=draw(d_model),
        refine_w=draw(d_model, refine_dim),
        refine_b=draw(refine_dim),
    )


def save_weights(path, w: EncoderWeights) -> None:
    """Write a `.wts` bundle: header then row-major f32 matrices in order."""
    with open(path, "wb") as f:
        f.write(_WTS_HEADER.pack(WTS_MAGIC, WTS_VERSION, w.d_model, w.n_heads,
                                 w.d_ff, w.n_classes, w.seed))
        for name in EncoderWeights.MATRIX_FIELDS:
            f.write(np.ascontiguousarray(getattr(w, name), dtype="<f4").tobytes())


def load_weights(path) -> EncoderWeights:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _WTS_HEADER.size:
        raise FormatError("weights file shorter than header")
    magic, version, d_model, n_heads, d_ff, n_classes, seed = _WTS_HEADER.unpack_from(raw)
    if magic != WTS_MAGIC:
        raise FormatError(f"bad weights magic {magic!r}")
    if version != WTS_VERSION:
        raise FormatError(f"unsupported weights version {version}")
    w = EncoderWeights(d_model, n_heads, d_ff, n_classes, seed)
    refine_dim = w.refine_dim
    shapes = {
        "w_q": (d_model, d_model), "w_k": (d_model, d_model),
        "w_v": (d_model, d_model), "w_o": (d_model, d_model),
        "ffn_w1": (d_model, d_ff), "ffn_b1": (d_ff,),
        "ffn_w2": (d_ff, d_model), "ffn_b2": (d_model,),
        "refine_w": (d_model, refine_dim), "refine_b": (refine_dim,),
    }
    off = _WTS_HEADER.size
    for name in EncoderWeights.MATRIX_FIELDS:
        shape = shapes[name]
        count = int(np.prod(shape))
        end = off + count * 4
        if end > len(raw):
            raise FormatError("weights file truncated")
        arr = np.frombuffer(raw[off:end], dtype="<f4").reshape(shape).astype(np.float64)
        setattr(w, name, arr)
        off = end
    if off != len(raw):
        raise FormatError("weights file has trailing bytes")
    return w


def mha(Q: np.ndarray, K: np.ndarray, V: np.ndarray, n_heads: int) -> np.ndarray:
    """Multi-head attention, heads concatenated, no output projection.

    Q is (N, d); K and V are (M, d). Each head runs over blocks of
    _BLOCK_ROWS query rows in one reused (block, M) float64 score buffer,
    so the peak score memory is _BLOCK_ROWS x M x 8 bytes (1 MiB at
    M = 1024) instead of an (H, N, M) tensor. Scores are max-subtracted
    before the exponential, so output stays finite for any finite input,
    and each row is normalised after the product with V (FlashAttention's
    deferred normalisation, Dao et al. 2022).
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
    scale = np.sqrt(dh)
    out = np.empty((n, d))
    buf = np.empty((min(n, _BLOCK_ROWS), m))
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        kt = np.ascontiguousarray(K[:, cols].T)          # (dh, M)
        vh = np.ascontiguousarray(V[:, cols])            # (M, dh)
        for a in range(0, n, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, n)
            s = buf[: b - a]
            np.matmul(Q[a:b, cols], kt, out=s)
            s /= scale
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            out[a:b, cols] = (s @ vh) / s.sum(axis=1, keepdims=True)
    return out


def cca(query: PrimitiveBatch, keyval: PrimitiveBatch, w: EncoderWeights) -> np.ndarray:
    """Confidence-modulated cross attention between two batches.

    Values are scaled row-wise by key-side confidences after the linear
    projection; the concatenated head output is scaled by the query-side
    confidences before the final W_o projection.
    """
    if len(query) == 0 or len(keyval) == 0:
        raise InvalidInputError("cca batches must be nonempty")
    if query.d_model != w.d_model or keyval.d_model != w.d_model:
        raise InvalidInputError("feature width does not match the weight bundle")
    Q = query.features @ w.w_q
    K = keyval.features @ w.w_k
    V = (keyval.features @ w.w_v) * keyval.confidences[:, None]
    out = mha(Q, K, V, w.n_heads)
    return (out * query.confidences[:, None]) @ w.w_o


def _ffn(x: np.ndarray, w: EncoderWeights) -> np.ndarray:
    return np.maximum(x @ w.ffn_w1 + w.ffn_b1, 0.0) @ w.ffn_w2 + w.ffn_b2


def _logit(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, _OPACITY_EPS, 1.0 - _OPACITY_EPS)
    return np.log(p / (1.0 - p))


def temporal_encoder_block(
    query: PrimitiveBatch,
    keyval: PrimitiveBatch,
    w: EncoderWeights,
    conf_cfg: ConfidenceConfig | None = None,
) -> PrimitiveBatch:
    """One attention + FFN + refinement block.

    Residual chain on features (x + cca, then + FFN), then the refinement
    head maps features to additive attribute deltas: mean shift, log-scale
    shift, quaternion delta (renormalized), opacity delta in logit space,
    and class-logit deltas. Confidences are recomputed from the refined
    logits and opacities so later blocks see current values.
    """
    f1 = query.features + cca(query, keyval, w)
    f2 = f1 + _ffn(f1, w)
    delta = f2 @ w.refine_w + w.refine_b
    d_mean, d_logs, d_quat = delta[:, 0:3], delta[:, 3:6], delta[:, 6:10]
    d_opa, d_logits = delta[:, 10], delta[:, 11:]

    means = query.means + d_mean
    scales = np.maximum(query.scales * np.exp(d_logs), MIN_SCALE)
    quats = query.rotations + d_quat
    norms = np.linalg.norm(quats, axis=1)
    degenerate = norms < _QUAT_EPS
    quats[degenerate] = query.rotations[degenerate]
    norms[degenerate] = np.linalg.norm(quats[degenerate], axis=1)
    quats /= norms[:, None]
    opac = 1.0 / (1.0 + np.exp(-(_logit(query.opacities) + d_opa)))
    logits = query.logits + d_logits
    confs = confidence_values(logits, opac, conf_cfg)
    return PrimitiveBatch(means, scales, quats, opac, logits, f2, confs)


def dte_step(
    current: PrimitiveBatch,
    history: PrimitiveBatch,
    w: EncoderWeights,
    n_blocks: int = 2,
    conf_cfg: ConfidenceConfig | None = None,
) -> tuple[PrimitiveBatch, PrimitiveBatch]:
    """Dual-stream temporal refinement with shared weights.

    Stream A queries history with the current batch, stream B the reverse;
    both streams update synchronously per block, so swapping the inputs
    swaps the outputs exactly. An empty history degenerates to n_blocks of
    self-attention on the current batch.
    """
    if len(current) == 0:
        raise InvalidInputError("dte_step needs a nonempty current batch")
    if n_blocks < 1:
        raise InvalidInputError("n_blocks must be >= 1")
    if len(history) == 0:
        a = current
        for _ in range(n_blocks):
            a = temporal_encoder_block(a, a, w, conf_cfg)
        return a, PrimitiveBatch.empty(current.d_model, current.n_logits + 1)
    a, b = current, history
    for _ in range(n_blocks):
        a, b = (
            temporal_encoder_block(a, b, w, conf_cfg),
            temporal_encoder_block(b, a, w, conf_cfg),
        )
    return a, b
