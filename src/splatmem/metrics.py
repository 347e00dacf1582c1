"""IoU metrics under the per-frame frustum and whole-episode protocols.

Frustum masks project only the voxel centers in each frame's frustum box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CameraFrame
from .errors import InvalidInputError
from .grid import LABEL_MODE, VoxelGrid

# Voxel centres per frustum test, which bounds its transient arrays.
_FRUSTUM_CHUNK = 1 << 15


@dataclass
class MetricReport:
    """Occupancy IoU, per-class IoU (NaN where a class has empty union),
    and mean IoU over classes with ground-truth support."""

    iou: float
    per_class_iou: np.ndarray
    miou: float
    observed_fraction: float

    def to_text(self) -> str:
        lines = [
            f"iou {self.iou:.6f}",
            f"miou {self.miou:.6f}",
            f"observed_fraction {self.observed_fraction:.6f}",
        ]
        for c, v in enumerate(self.per_class_iou):
            lines.append(f"class_{c}_iou " + ("absent" if np.isnan(v) else f"{v:.6f}"))
        return "\n".join(lines) + "\n"


def _check_labels(pred: VoxelGrid, gt: VoxelGrid, mask: np.ndarray) -> np.ndarray:
    if pred.mode != LABEL_MODE or gt.mode != LABEL_MODE:
        raise InvalidInputError("iou expects label grids")
    if not pred.same_geometry(gt):
        raise InvalidInputError("pred and gt grids are not congruent")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred.dims:
        raise InvalidInputError("mask shape does not match the grids")
    if not np.any(mask):
        raise InvalidInputError("mask selects no voxels")
    return mask


def iou(pred: VoxelGrid, gt: VoxelGrid, mask: np.ndarray) -> MetricReport:
    """Occupancy and per-class intersection-over-union over masked voxels.

    Occupancy treats every non-empty label as occupied. A class whose
    prediction/ground-truth union is empty gets the NaN sentinel; the mean
    covers only classes with ground-truth support.
    """
    mask = _check_labels(pred, gt, mask)
    C = gt.num_classes
    n_occ = C - 1  # the empty class is the last
    # confusion[g, p]: masked voxels of ground-truth label g predicted as p
    confusion = np.bincount(gt.values[mask].astype(np.int64) * C
                            + pred.values[mask], minlength=C * C).reshape(C, C)

    union = confusion.sum() - confusion[n_occ, n_occ]
    inter = confusion[:n_occ, :n_occ].sum()
    occ_iou = inter / union if union else 1.0  # both all-empty: no disagreement

    diag = np.diag(confusion)[:n_occ]
    u = (confusion.sum(axis=0) + confusion.sum(axis=1))[:n_occ] - diag
    per_class = np.full(n_occ, np.nan)
    np.divide(diag, u, out=per_class, where=u > 0)
    supported = confusion.sum(axis=1)[:n_occ] > 0
    miou = float(np.mean(per_class[supported])) if np.any(supported) else float("nan")
    return MetricReport(float(occ_iou), per_class, miou,
                        float(mask.sum() / mask.size))


def _frustum_box(grid: VoxelGrid, frame: CameraFrame) -> tuple[tuple[slice, ...], np.ndarray]:
    """The box of voxels around the world AABB of the frame's 8 frustum
    corners, padded by one voxel, and the frustum test of its centers; no
    center outside the box lies in the frustum. The test runs on slabs of
    whole x-planes of the box, each of at most _FRUSTUM_CHUNK centers or
    else one plane."""
    w, h = frame.width, frame.height
    origin, dirs = frame.pixel_rays(np.array([[0, 0], [w, 0], [0, h], [w, h]]))
    # no center lies deeper than the grid's deepest corner
    view, extent = frame.pose[:3, 2], np.asarray(grid.dims) * grid.voxel_size
    far = min(frame.far, (grid.origin - frame.position) @ view
              + np.maximum(extent * view, 0.0).sum())
    corners = origin + np.concatenate([frame.near * dirs, far * dirs])
    ijk = grid.voxel_of(corners)
    lo = np.clip(ijk.min(axis=0) - 1, 0, grid.dims)
    hi = np.clip(ijk.max(axis=0) + 2, 0, grid.dims)
    box = tuple(slice(a, max(a, b)) for a, b in zip(lo.tolist(), hi.tolist()))
    axes = [ax[sl] for ax, sl in zip(grid.axis_centers(), box)]
    inside = np.empty(tuple(len(ax) for ax in axes), dtype=bool)
    step = max(1, _FRUSTUM_CHUNK // max(1, inside.shape[1] * inside.shape[2]))
    for a in range(0, len(axes[0]), step):
        slab = inside[a:a + step]
        centers = np.stack(np.meshgrid(axes[0][a:a + step], *axes[1:], indexing="ij",
                                       copy=False), axis=-1)
        slab[...] = frame.contains(centers.reshape(-1, 3)).reshape(slab.shape)
    return box, inside


def local_mask(grid: VoxelGrid, frame: CameraFrame) -> np.ndarray:
    """Voxels whose centers fall inside one frame's frustum."""
    return observed_mask(grid, [frame])


def observed_mask(grid: VoxelGrid, frames: list[CameraFrame]) -> np.ndarray:
    """Union of per-frame frustum masks over an exploration sequence."""
    if not frames:
        raise InvalidInputError("observed_mask needs at least one frame")
    out = np.zeros(grid.dims, dtype=bool)
    for f in frames:
        box, inside = _frustum_box(grid, f)
        out[box] |= inside
    return out
