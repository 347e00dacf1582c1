"""Primitive types, the fusion-cell key and the pinhole camera.

`PrimitiveBatch` is the one struct-of-arrays primitive set that every
layer takes and returns. Quaternions are stored (w, x, y, z) everywhere,
including file formats.

A fusion cell is one int64 key, the spatial-hash cell id of voxel hashing
(Teschner et al. 2003; Niessner et al. 2013). Only `cell_key` knows the
packing. Key order is the lexicographic order of the cells' index
triples, and every other module treats keys as opaque sortable ints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conf import confidence_values
from .errors import InvalidInputError, InvariantError

# Class count: occupied classes 0..NUM_CLASSES-2 plus one empty class.
# Logit vectors cover only the NUM_CLASSES-1 occupied classes; the empty
# probability is derived from opacity at render time.
NUM_CLASSES = 12

# Feature width of every primitive the pipeline makes, and the width the
# temporal encoder's weights act on. A `.gmem` checkpoint records its own
# width, so a loaded memory may hold another.
D_MODEL = 32

# Fusion (`cavf.fuse`) clamps the scale components it computes to at least
# this, which keeps the covariance invertible.
MIN_SCALE = 1e-4

_QUAT_NORM_EPS = 1e-8

# A key holds cell indices in [-_KEY_REACH, _KEY_REACH) on each axis.
_KEY_REACH = 1 << 20
_KEY_WEIGHTS = np.array([1 << 42, 1 << 21, 1], dtype=np.int64)


def cell_key(points, size: float) -> np.ndarray:
    """Fusion-cell key, (N,), of each (N, 3) point: each index of
    floor(p / size), cells anchored at the world origin, offset by 2^20
    into 21 bits, x highest. Raises InvariantError for an index
    outside [-2^20, 2^20), which would wrap: at the default 0.12 m cell, a
    point about 125 km from the origin on any axis.
    """
    # checked before the int cast, which is undefined for NaN and past int64
    c = np.floor(np.asarray(points, dtype=np.float64) / size)
    if c.size and not (c.min() >= -_KEY_REACH and c.max() < _KEY_REACH):
        raise InvariantError(
            f"a point lies outside the fusion-cell key range at cell size {size:g} m: "
            f"a key reaches 2^20 cells ({_KEY_REACH * size:g} m) from the origin "
            f"on each axis")
    return (c.astype(np.int64) + _KEY_REACH) @ _KEY_WEIGHTS


def quats_to_rotations(quats: np.ndarray) -> np.ndarray:
    """Batched quaternion-to-rotation conversion, (N,4) -> (N,3,3)."""
    q = np.asarray(quats, dtype=np.float64)
    n = np.linalg.norm(q, axis=-1, keepdims=True)
    if np.any(n < _QUAT_NORM_EPS):
        raise InvalidInputError("batch contains a (near-)zero-norm quaternion")
    w, x, y, z = (q / n).T
    R = np.empty((q.shape[0], 3, 3))
    R[:, 0, 0] = 1 - 2 * (y * y + z * z)
    R[:, 0, 1] = 2 * (x * y - w * z)
    R[:, 0, 2] = 2 * (x * z + w * y)
    R[:, 1, 0] = 2 * (x * y + w * z)
    R[:, 1, 1] = 1 - 2 * (x * x + z * z)
    R[:, 1, 2] = 2 * (y * z - w * x)
    R[:, 2, 0] = 2 * (x * z - w * y)
    R[:, 2, 1] = 2 * (y * z + w * x)
    R[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return R


_BATCH_FIELDS = ("means", "scales", "rotations", "opacities", "logits", "features")


@dataclass
class PrimitiveBatch:
    """A set of primitives with their feature rows.

    Arrays: means (N,3), scales (N,3), rotations (N,4), opacities (N,),
    logits (N,C-1), features (N,d).
    """

    means: np.ndarray
    scales: np.ndarray
    rotations: np.ndarray
    opacities: np.ndarray
    logits: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        for name in _BATCH_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.means)
        for name in _BATCH_FIELDS[1:]:
            if len(getattr(self, name)) != n:
                raise InvalidInputError(f"batch field {name} has mismatched length")

    def __len__(self) -> int:
        return len(self.means)

    @property
    def confidences(self) -> np.ndarray:
        """(N,) confidence of each row, computed from its logits and opacity
        on every read: fusion writes both in place."""
        return confidence_values(self.logits, self.opacities)

    @property
    def d_model(self) -> int:
        return self.features.shape[1]

    @property
    def n_logits(self) -> int:
        return self.logits.shape[1]

    @classmethod
    def empty(cls, n_classes: int) -> "PrimitiveBatch":
        z = np.zeros
        return cls(z((0, 3)), z((0, 3)), z((0, 4)), z(0), z((0, n_classes - 1)),
                   z((0, D_MODEL)))

    def select(self, idx) -> "PrimitiveBatch":
        return PrimitiveBatch(*(getattr(self, f)[idx] for f in _BATCH_FIELDS))


def concat_batches(*batches: PrimitiveBatch) -> PrimitiveBatch:
    """The rows of `batches`, in order, in one batch."""
    return PrimitiveBatch(*(
        np.concatenate([getattr(b, f) for b in batches]) for f in _BATCH_FIELDS))


@dataclass(frozen=True)
class CameraFrame:
    """Pinhole camera: intrinsics K, rigid camera-to-world pose (both finite), depth range.

    Camera axes: +x right, +y down, +z forward. Pixel (u, v) spans
    [0, width) x [0, height); a point projects inside the frame iff its
    camera-space depth (z) lies in [near, far], with 0 < near < far, and
    its projection lands inside the bounds.
    """

    intrinsics: np.ndarray
    pose: np.ndarray
    width: int
    height: int
    near: float
    far: float

    def __post_init__(self):
        K = np.asarray(self.intrinsics, dtype=np.float64)
        P = np.asarray(self.pose, dtype=np.float64)
        if K.shape != (3, 3):
            raise InvalidInputError("intrinsics must be 3x3")
        if not (np.all(np.isfinite(K)) and K[0, 0] > 0 and K[1, 1] > 0):
            raise InvalidInputError("intrinsics must be finite, with positive focal lengths")
        if P.shape != (4, 4) or not np.all(np.isfinite(P)):
            raise InvalidInputError("pose must be a finite 4x4 rigid transform")
        R = P[:3, :3]
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-6:
            raise InvalidInputError("pose rotation part is not orthonormal")
        if not (0 < self.near < self.far):  # also rejects NaN
            raise InvalidInputError("near and far must satisfy 0 < near < far")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image dimensions must be positive")
        object.__setattr__(self, "intrinsics", K)
        object.__setattr__(self, "pose", P)

    @property
    def position(self) -> np.ndarray:
        return self.pose[:3, 3]

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Frustum test for (N,3) world points: camera-space depth in
        [near, far] and pinhole projection inside the image bounds. As
        near > 0, the depth test alone keeps points at or behind the
        camera outside, whatever their projection reads."""
        p = np.atleast_2d(np.asarray(points, dtype=np.float64))
        pc = (p - self.position) @ self.pose[:3, :3]  # R^T (p - t), row-vector form
        z = pc[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.intrinsics[0, 0] * pc[:, 0] / z + self.intrinsics[0, 2]
            v = self.intrinsics[1, 1] * pc[:, 1] / z + self.intrinsics[1, 2]
            return ((z >= self.near) & (z <= self.far) & (u >= 0) & (u < self.width)
                    & (v >= 0) & (v < self.height))

    def pixel_rays(self, pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """World-space rays through pixel coords (N,2).

        Returns (origin (3,), directions (N,3)). Directions are scaled so
        that the ray parameter equals camera-space depth (z).
        """
        px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        K = self.intrinsics
        d_cam = np.stack(
            [
                (px[:, 0] - K[0, 2]) / K[0, 0],
                (px[:, 1] - K[1, 2]) / K[1, 1],
                np.ones(len(px)),
            ],
            axis=1,
        )
        return self.position.copy(), d_cam @ self.pose[:3, :3].T
