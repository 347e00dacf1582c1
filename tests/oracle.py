"""Scalar and full-grid reference code for the batched library.

Nothing in `splatmem` calls these. The tests compare the batched code
against them: one primitive at a time (`GaussianPrimitive`, `kernel`,
`density`, `quat_to_rotation`, `entropy`, `confidence`), and the fields of
a splatting pass spread over the whole grid (`alpha`, `semantics`,
`undefined`) with the float64 channels a render makes of them
(`channels`). `cell_of` gives the integer cell triple of each point,
`pack_cells` the fusion-cell keys of the (N, 3) cell triples that the
grouping references work on, and `project` the pixel coordinates and
depths of points under a camera's pinhole model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from splatmem.conf import confidence_values, entropy_batch
from splatmem.core import _QUAT_NORM_EPS, MIN_SCALE, PrimitiveBatch, cell_key
from splatmem.errors import InvalidInputError
from splatmem.grid import VoxelGrid
from splatmem.splat import SplatFields, _flat_voxels, splat_slabs


def cell_of(points, origin, size: float) -> np.ndarray:
    """Integer cell floor((p - origin) / size) of each (N, 3) point."""
    p = np.asarray(points, dtype=np.float64)
    return np.floor((p - origin) / size).astype(np.int64)


def project(frame, points) -> tuple[np.ndarray, np.ndarray]:
    """Pixel coords (N, 2) and camera-space depths (N,) of (N, 3) world
    points under `frame` (a `CameraFrame`), for points in front of it."""
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    pc = (p - frame.position) @ frame.pose[:3, :3]
    K = frame.intrinsics
    uv = K[:2, :2].diagonal() * pc[:, :2] / pc[:, 2:] + K[:2, 2]
    return uv, pc[:, 2]


def _vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise InvalidInputError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a


def quat_to_rotation(q) -> np.ndarray:
    """Convert a (w, x, y, z) quaternion to a 3x3 rotation matrix.

    The input is renormalized; a near-zero-norm quaternion is rejected.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (4,):
        raise InvalidInputError(f"quaternion must be a 4-vector, got shape {q.shape}")
    n = np.linalg.norm(q)
    if n < _QUAT_NORM_EPS:
        raise InvalidInputError("quaternion has (near-)zero norm")
    w, x, y, z = q / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(frozen=True)
class Covariance:
    """Symmetric positive-definite 3x3 covariance of one primitive."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise InvalidInputError(f"covariance must be 3x3, got {m.shape}")
        if np.max(np.abs(m - m.T)) > 1e-9:
            raise InvalidInputError("covariance is not symmetric")
        if np.any(np.linalg.eigvalsh(m) <= 0):
            raise InvalidInputError("covariance is not positive definite")
        object.__setattr__(self, "matrix", m)


def covariance(scale, q) -> Covariance:
    """Build the covariance R diag(s)^2 R^T from scale and rotation.

    Eigenvalues of the result are exactly the squared scale components.
    """
    s = _vec3(scale, "scale")
    if np.any(s <= 0):
        raise InvalidInputError("scale components must be strictly positive")
    R = quat_to_rotation(q)
    return Covariance(R @ np.diag(s * s) @ R.T)


@dataclass(frozen=True)
class GaussianPrimitive:
    """One anisotropic semantic Gaussian.

    Fields:
        mean: world position, meters (3,)
        scale: per-axis standard deviations, meters (3,), clamped >= MIN_SCALE
        rotation: unit quaternion (w, x, y, z)
        opacity: geometric certainty in [0, 1]
        logits: occupied-class scores, length NUM_CLASSES - 1 by default
        feature: embedding vector of arbitrary dimension
    """

    mean: np.ndarray
    scale: np.ndarray
    rotation: np.ndarray
    opacity: float
    logits: np.ndarray
    feature: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        mean = _vec3(self.mean, "mean")
        scale = np.maximum(_vec3(self.scale, "scale"), MIN_SCALE)
        rot = np.asarray(self.rotation, dtype=np.float64)
        if rot.shape != (4,):
            raise InvalidInputError("rotation must be a quaternion 4-vector")
        n = np.linalg.norm(rot)
        if n < _QUAT_NORM_EPS:
            raise InvalidInputError("rotation quaternion has (near-)zero norm")
        rot = rot / n
        if not (0.0 <= self.opacity <= 1.0):
            raise InvalidInputError(f"opacity {self.opacity} outside [0, 1]")
        logits = np.asarray(self.logits, dtype=np.float64)
        if logits.ndim != 1 or logits.size < 1:
            raise InvalidInputError("logits must be a nonempty 1-d vector")
        feature = np.asarray(self.feature, dtype=np.float64)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "opacity", float(self.opacity))
        object.__setattr__(self, "logits", logits)
        object.__setattr__(self, "feature", feature)

    def covariance(self) -> Covariance:
        return covariance(self.scale, self.rotation)

    def inv_covariance(self) -> np.ndarray:
        """Closed-form inverse R diag(s)^-2 R^T; exact, no linear solve."""
        R = quat_to_rotation(self.rotation)
        return R @ np.diag(1.0 / (self.scale * self.scale)) @ R.T


def kernel(x, g: GaussianPrimitive) -> float:
    """Un-normalized Gaussian kernel exp(-0.5 d^T Sigma^-1 d), in (0, 1]."""
    d = _vec3(x, "x") - g.mean
    return float(np.exp(-0.5 * d @ g.inv_covariance() @ d))


def density(x, g: GaussianPrimitive) -> float:
    """Normalized Gaussian pdf value at x."""
    norm = (2.0 * np.pi) ** 1.5 * float(np.prod(g.scale))
    return kernel(x, g) / norm


def from_primitives(primitives: list[GaussianPrimitive]) -> PrimitiveBatch:
    """Stack GaussianPrimitive rows."""
    prims = list(primitives)
    if not prims:
        raise InvalidInputError("cannot build a batch from zero primitives")
    return PrimitiveBatch(
        np.stack([g.mean for g in prims]),
        np.stack([g.scale for g in prims]),
        np.stack([g.rotation for g in prims]),
        np.array([g.opacity for g in prims]),
        np.stack([g.logits for g in prims]),
        np.stack([g.feature for g in prims]),
    )


def entropy(logits) -> float:
    """Shannon entropy of softmax(logits), natural log."""
    return float(entropy_batch(np.atleast_2d(np.asarray(logits, dtype=np.float64)))[0])


def confidence(g: GaussianPrimitive) -> float:
    """Confidence of a single primitive, in [0, 1]."""
    return float(confidence_values(g.logits[None, :], np.array([g.opacity]))[0])


def centers(grid: VoxelGrid) -> np.ndarray:
    """World coordinates of all voxel centers, shape dims + (3,)."""
    return np.stack(np.meshgrid(*grid.axis_centers(), indexing="ij"), axis=-1)


def splat_fields(grid: VoxelGrid, primitives: PrimitiveBatch) -> SplatFields:
    """The fields of every slab of one splatting pass, joined."""
    slabs = list(splat_slabs(grid, primitives))
    return SplatFields(grid.dims,
                       [np.concatenate([f.idx[a] for f in slabs], axis=1) for a in range(3)],
                       np.concatenate([f.keep for f in slabs]),
                       np.concatenate([f.acc for f in slabs]))


def _full(f: SplatFields, outside, inside: np.ndarray) -> np.ndarray:
    """Spread per-tile values, (T, V) or (T, C, V), over the grid, with
    `outside` at every voxel of no tile."""
    if inside.ndim == 3:
        inside = inside.transpose(0, 2, 1)
    out = np.full((int(np.prod(f.dims)),) + inside.shape[2:], outside, dtype=inside.dtype)
    voxels = _flat_voxels(f.idx, f.dims)
    live = voxels >= 0
    out[voxels[live]] = inside[live]
    return out.reshape(f.dims + inside.shape[2:])


def alpha(f: SplatFields) -> np.ndarray:
    """Opacity of every voxel of the grid."""
    return _full(f, 0.0, 1.0 - f.keep)


def semantics(f: SplatFields) -> np.ndarray:
    """Class distribution of every voxel, uniform where the density is zero."""
    dens = f.acc[:, -1:]
    sem = np.divide(f.acc[:, :-1], np.where(dens == 0.0, 1.0, dens))
    sem.transpose(0, 2, 1)[dens[:, 0] == 0.0] = 1.0 / sem.shape[1]
    return _full(f, 1.0 / sem.shape[1], sem)


def channels(f: SplatFields) -> np.ndarray:
    """Float64 channels (alpha e_1, ..., alpha e_{C-1}, 1 - alpha) of every
    voxel, before `render` rounds them to float32."""
    a = alpha(f)
    return np.concatenate([a[..., None] * semantics(f), (1.0 - a)[..., None]], axis=-1)


def undefined(f: SplatFields) -> np.ndarray:
    """True at every voxel of zero total density."""
    return _full(f, True, f.acc[:, -1] == 0.0)


def pack_cells(cells) -> np.ndarray:
    """The fusion-cell keys of (N, 3) cell index triples, through the cell
    centres at cell size 1/8, where the point-to-cell mapping is exact."""
    return cell_key((np.asarray(cells) + 0.5) * 0.125, 0.125)
