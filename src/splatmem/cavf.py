"""Confidence-aware voxel fusion.

Primitives are grouped by the fusion cell containing their mean (the
caller computes the cell keys with `core.cell_key`, anchored at the world
origin), weighted by a per-cell softmax over their confidences at
temperature 1, and merged into one primitive per occupied cell by convex
combination of every attribute and feature. Quaternions are sign-aligned
to the highest-weight group member before summation since q and -q encode
the same rotation. Each merged mean is clipped per axis to its group's
range, which rounding can leave, so it stays in the group's cell.

Both steps run without a Python loop over cells: a stable argsort of the
keys groups the rows, the groups are bucketed by their number of rows k,
and each bucket is reduced at once, the softmax by row-wise sums over a
(G, k) array and the merge by one (G, 1, k) @ (G, k, D) batched matmul per
attribute. These reductions add in the same order as a per-group
`e.sum()` and `gw @ X`, so results are bit-identical to a loop over cells.
`np.add.reduceat` is not: it adds the rows of a segment in another order
and changes the last bit of some sums of three or more rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# A process's first np.unique imports numpy.ma (11-18 ms of CPU): load it
# at import, not inside the first frame or stage that calls np.unique.
import numpy.ma  # noqa: F401

from .core import MIN_SCALE, PrimitiveBatch
from .errors import InvalidInputError

_QUAT_SUM_EPS = 1e-8


@dataclass(frozen=True)
class FusionConfig:
    voxel_size: float = 0.12

    def __post_init__(self):
        if not 0 < self.voxel_size < np.inf:  # also rejects NaN
            raise InvalidInputError("voxel_size must be positive and finite")


def _group_buckets(cells: np.ndarray) -> tuple[np.ndarray, list]:
    """Group rows by cell key, and the groups by their number of rows.

    Returns the sorted distinct keys and, for each group size k, a pair
    (g, rows): the ids g of the groups of k rows, numbered in key order,
    and their (len(g), k) row indices in stable sorted order.
    """
    order = np.argsort(cells, kind="stable")
    keys, starts, sizes = np.unique(cells[order], return_index=True, return_counts=True)
    buckets = []
    for k in np.unique(sizes):
        g = np.nonzero(sizes == k)[0]
        buckets.append((g, order[starts[g][:, None] + np.arange(k)]))
    return keys, buckets


def fusion_weights(confidences, cells) -> np.ndarray:
    """Per-cell softmax of the confidences; each cell sums to 1."""
    conf = np.asarray(confidences, dtype=np.float64)
    cells = np.asarray(cells)
    if len(conf) != len(cells):
        raise InvalidInputError("confidences and cells must have equal length")
    w = np.empty(len(conf))
    for _, rows in _group_buckets(cells)[1]:
        z = conf[rows]
        e = np.exp(z - z.max(axis=1, keepdims=True))
        w[rows] = e / e.sum(axis=1, keepdims=True)
    return w


@dataclass
class FusedSet:
    """One merged primitive per occupied cell, in cell-sorted order."""

    batch: PrimitiveBatch
    quat_fallback: np.ndarray       # (M,) True where the quaternion sum degenerated

    def __len__(self) -> int:
        return len(self.batch)


def fuse(primitives: PrimitiveBatch, weights, cells) -> FusedSet:
    """Merge co-cell primitives by confidence-weighted summation.

    `weights` must come from fusion_weights over the same `cells`. Output
    order is canonical (cell-sorted), so the result is independent of the
    input ordering. A merged row's confidence is that of its merged
    logits and opacity.
    """
    b = primitives
    w = np.asarray(weights, dtype=np.float64)
    cells = np.asarray(cells)
    if not (len(w) == len(cells) == len(b)):
        raise InvalidInputError("primitives, weights, cells length mismatch")

    out_cells, buckets = _group_buckets(cells)
    m = len(out_cells)
    means, scales = np.empty((m, 3)), np.empty((m, 3))
    rotations, opacities = np.empty((m, 4)), np.empty(m)
    logits = np.empty((m, b.n_logits))
    features = np.empty((m, b.d_model))
    quat_fallback = np.zeros(m, dtype=bool)
    # Each (1, k) @ (k, D) product of a batched matmul is the same BLAS call
    # as a per-group gw @ X; summing gw[:, :, None] * X would round differently.
    for g, rows in buckets:
        gw = w[rows][:, None, :]                              # (G, 1, k)
        grouped = b.means[rows]                               # (G, k, 3)
        means[g] = np.clip(np.matmul(gw, grouped)[:, 0], grouped.min(axis=1),
                           grouped.max(axis=1))
        scales[g] = np.maximum(np.matmul(gw, b.scales[rows])[:, 0], MIN_SCALE)
        opacities[g] = np.matmul(gw, b.opacities[rows][:, :, None])[:, 0, 0]
        logits[g] = np.matmul(gw, b.logits[rows])[:, 0]
        features[g] = np.matmul(gw, b.features[rows])[:, 0]
        q = b.rotations[rows]                                 # (G, k, 4)
        ref = q[np.arange(len(g)), np.argmax(gw[:, 0], axis=1)]
        sign = np.where(np.matmul(q, ref[:, :, None]) < 0, -1.0, 1.0)
        qs = np.matmul(gw, q * sign)                          # (G, 1, 4)
        norm = np.sqrt(np.matmul(qs, qs.transpose(0, 2, 1)))[:, 0, 0]
        fallback = norm < _QUAT_SUM_EPS
        rotations[g] = np.where(fallback[:, None], ref,
                                qs[:, 0] / np.where(fallback, 1.0, norm)[:, None])
        quat_fallback[g] = fallback
    batch = PrimitiveBatch(means, scales, rotations, opacities, logits, features)
    return FusedSet(batch, quat_fallback)
