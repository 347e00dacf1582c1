"""Confidence-aware voxel fusion.

Primitives are grouped by the voxel cell containing their mean, weighted
by a per-cell softmax over their confidences, and merged into one
primitive per occupied cell by convex combination of every attribute and
feature. Quaternions are sign-aligned to the highest-weight group member
before summation since q and -q encode the same rotation.

Both steps run without a Python loop over cells: one lexsort groups the
rows, the groups are bucketed by their number of rows k, and each bucket
is reduced at once, the softmax by row-wise sums over a (G, k) array and
the merge by one (G, 1, k) @ (G, k, D) batched matmul per attribute. These
reductions add in the same order as a per-group `e.sum()` and `gw @ X`, so
results are bit-identical to a loop over cells. `np.add.reduceat` is not:
it adds the rows of a segment in another order and changes the last bit
of some sums of three or more rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MIN_SCALE
from .errors import InvalidInputError

WORLD_ZERO = "world_zero"
SCENE_MIN = "scene_min"

_QUAT_SUM_EPS = 1e-8


@dataclass(frozen=True)
class FusionConfig:
    voxel_size: float = 0.12
    temperature: float = 1.0
    grid_origin_policy: str = WORLD_ZERO

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise InvalidInputError("voxel_size must be positive")
        if self.temperature <= 0:
            raise InvalidInputError("temperature must be positive")
        if self.grid_origin_policy not in (WORLD_ZERO, SCENE_MIN):
            raise InvalidInputError(
                f"unknown grid_origin_policy {self.grid_origin_policy!r}"
            )


def _means_of(primitives) -> np.ndarray:
    if hasattr(primitives, "means"):
        return np.asarray(primitives.means, dtype=np.float64)
    return np.stack([g.mean for g in primitives]) if primitives else np.zeros((0, 3))


def fusion_origin(means: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    if cfg.grid_origin_policy == WORLD_ZERO or len(means) == 0:
        return np.zeros(3)
    return means.min(axis=0)


def assign_voxels(primitives, cfg: FusionConfig) -> np.ndarray:
    """Integer grouping cell floor((mean - origin) / voxel_size), (N, 3)."""
    means = _means_of(primitives)
    origin = fusion_origin(means, cfg)
    return np.floor((means - origin) / cfg.voxel_size).astype(np.int64)


def _group_buckets(cells: np.ndarray) -> tuple[int, list]:
    """Group rows by cell, and the groups by their number of rows.

    Returns the number of groups and, for each group size k, a pair
    (g, rows): the ids g of the groups of k rows, numbered in lexicographic
    cell order, and their (len(g), k) row indices in stable sorted order.
    """
    if len(cells) == 0:
        return 0, []
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sc = cells[order]
    change = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    sizes = np.diff(np.append(starts, len(cells)))
    buckets = []
    for k in np.unique(sizes):
        g = np.nonzero(sizes == k)[0]
        buckets.append((g, order[starts[g][:, None] + np.arange(k)]))
    return len(starts), buckets


def fusion_weights(confidences, cells, temperature: float) -> np.ndarray:
    """Per-cell softmax of confidence / temperature; each cell sums to 1."""
    conf = np.asarray(confidences, dtype=np.float64)
    cells = np.asarray(cells)
    if len(conf) != len(cells):
        raise InvalidInputError("confidences and cells must have equal length")
    if temperature <= 0:
        raise InvalidInputError("temperature must be positive")
    w = np.empty(len(conf))
    for _, rows in _group_buckets(cells)[1]:
        z = conf[rows] / temperature
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        w[rows] = e / e.sum(axis=1, keepdims=True)
    return w


@dataclass
class FusedSet:
    """One merged primitive per occupied cell, in cell-sorted order."""

    means: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    logits: np.ndarray
    features: np.ndarray
    cells: np.ndarray               # (M, 3) grouping cell of each output
    quat_fallback: np.ndarray       # (M,) True where the quaternion sum degenerated

    def __len__(self) -> int:
        return len(self.means)


def fuse(primitives, features, weights, cells) -> FusedSet:
    """Merge co-cell primitives by confidence-weighted summation.

    `weights` must come from fusion_weights over the same `cells`. Output
    order is canonical (cell-sorted), so the result is independent of the
    input ordering.
    """
    if hasattr(primitives, "means"):
        means = np.asarray(primitives.means, dtype=np.float64)
        scales = np.asarray(primitives.scales, dtype=np.float64)
        quats = np.asarray(primitives.rotations, dtype=np.float64)
        opac = np.asarray(primitives.opacities, dtype=np.float64)
        logits = np.asarray(primitives.logits, dtype=np.float64)
    else:
        prims = list(primitives)
        means = np.stack([g.mean for g in prims])
        scales = np.stack([g.scale for g in prims])
        quats = np.stack([g.rotation for g in prims])
        opac = np.array([g.opacity for g in prims])
        logits = np.stack([g.logits for g in prims])
    feats = np.asarray(features, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    cells = np.asarray(cells)
    n = len(means)
    if not (len(feats) == len(w) == len(cells) == n):
        raise InvalidInputError("primitives, features, weights, cells length mismatch")
    if feats.ndim != 2:
        raise InvalidInputError("features must be an (N, d) array")

    m, buckets = _group_buckets(cells)
    out = FusedSet(
        means=np.empty((m, 3)),
        scales=np.empty((m, 3)),
        rotations=np.empty((m, 4)),
        opacities=np.empty(m),
        logits=np.empty((m, logits.shape[1])),
        features=np.empty((m, feats.shape[1])),
        cells=np.empty((m, 3), dtype=np.int64),
        quat_fallback=np.zeros(m, dtype=bool),
    )
    # Each (1, k) @ (k, D) product of a batched matmul is the same BLAS call
    # as a per-group gw @ X; summing gw[:, :, None] * X would round differently.
    for g, rows in buckets:
        out.cells[g] = cells[rows[:, 0]]
        gw = w[rows][:, None, :]                              # (G, 1, k)
        out.means[g] = np.matmul(gw, means[rows])[:, 0]
        out.scales[g] = np.maximum(np.matmul(gw, scales[rows])[:, 0], MIN_SCALE)
        out.opacities[g] = np.matmul(gw, opac[rows][:, :, None])[:, 0, 0]
        out.logits[g] = np.matmul(gw, logits[rows])[:, 0]
        out.features[g] = np.matmul(gw, feats[rows])[:, 0]
        q = quats[rows]                                       # (G, k, 4)
        ref = q[np.arange(len(g)), np.argmax(gw[:, 0], axis=1)]
        sign = np.where(np.matmul(q, ref[:, :, None]) < 0, -1.0, 1.0)
        qs = np.matmul(gw, q * sign)                          # (G, 1, 4)
        norm = np.sqrt(np.matmul(qs, qs.transpose(0, 2, 1)))[:, 0, 0]
        fallback = norm < _QUAT_SUM_EPS
        out.rotations[g] = np.where(fallback[:, None], ref,
                                    qs[:, 0] / np.where(fallback, 1.0, norm)[:, None])
        out.quat_fallback[g] = fallback
    return out


def fuse_with_config(primitives, features, confidences, cfg: FusionConfig) -> FusedSet:
    """Convenience: assign cells, weight, and fuse in one call."""
    cells = assign_voxels(primitives, cfg)
    w = fusion_weights(confidences, cells, cfg.temperature)
    return fuse(primitives, features, w, cells)
