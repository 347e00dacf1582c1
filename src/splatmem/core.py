"""Primitive types, the fusion-cell key and closed-form Gaussian math.

`PrimitiveBatch` is the one struct-of-arrays primitive set that every
layer takes and returns. `GaussianPrimitive` and the scalar functions
(`quat_to_rotation`, `covariance`, `kernel`, `density`) describe one
primitive; the tests use them as the dense oracle for the batched code.
Quaternions are stored (w, x, y, z) everywhere, including file formats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conf import confidence_values
from .errors import InvalidInputError

# Class count: occupied classes 0..NUM_CLASSES-2 plus one empty class.
# Logit vectors cover only the NUM_CLASSES-1 occupied classes; the empty
# probability is derived from opacity at render time.
NUM_CLASSES = 12

# Scale components below this are clamped at construction to keep the
# covariance invertible.
MIN_SCALE = 1e-4

_QUAT_NORM_EPS = 1e-8


def _vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (3,):
        raise InvalidInputError(f"{name} must be a 3-vector, got shape {a.shape}")
    return a


def cell_of(points, origin, size: float) -> np.ndarray:
    """Integer cell floor((p - origin) / size) of each (N, 3) point."""
    p = np.asarray(points, dtype=np.float64)
    return np.floor((p - origin) / size).astype(np.int64)


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


_BATCH_FIELDS = ("means", "scales", "rotations", "opacities", "logits",
                 "features", "confidences")


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
        for name in _BATCH_FIELDS:
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        n = len(self.means)
        for name in _BATCH_FIELDS[1:]:
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
    def from_primitives(cls, primitives: list[GaussianPrimitive]) -> "PrimitiveBatch":
        """Stack GaussianPrimitive rows; confidences use the default config."""
        prims = list(primitives)
        if not prims:
            raise InvalidInputError("cannot build a batch from zero primitives")
        logits = np.stack([g.logits for g in prims])
        opac = np.array([g.opacity for g in prims])
        return cls(
            np.stack([g.mean for g in prims]),
            np.stack([g.scale for g in prims]),
            np.stack([g.rotation for g in prims]),
            opac,
            logits,
            np.stack([g.feature for g in prims]),
            confidence_values(logits, opac),
        )

    def copy(self) -> "PrimitiveBatch":
        return PrimitiveBatch(*(np.array(getattr(self, f)) for f in _BATCH_FIELDS))

    def select(self, idx) -> "PrimitiveBatch":
        return PrimitiveBatch(*(getattr(self, f)[idx] for f in _BATCH_FIELDS))


def concat_batches(a: PrimitiveBatch, b: PrimitiveBatch) -> PrimitiveBatch:
    if len(a) == 0:
        return b.copy()
    if len(b) == 0:
        return a.copy()
    return PrimitiveBatch(*(
        np.concatenate([getattr(a, f), getattr(b, f)]) for f in _BATCH_FIELDS))


@dataclass(frozen=True)
class CameraFrame:
    """Pinhole camera: intrinsics K, rigid camera-to-world pose, depth range.

    Camera axes: +x right, +y down, +z forward. Pixel (u, v) spans
    [0, width) x [0, height); a point projects inside the frame iff its
    camera-space depth (z) lies in [near, far] and its projection lands
    inside the bounds.
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
        if K[0, 0] <= 0 or K[1, 1] <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if P.shape != (4, 4):
            raise InvalidInputError("pose must be a 4x4 rigid transform")
        R = P[:3, :3]
        if np.max(np.abs(R @ R.T - np.eye(3))) > 1e-6:
            raise InvalidInputError("pose rotation part is not orthonormal")
        if not (self.near < self.far):
            raise InvalidInputError("near must be less than far")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image dimensions must be positive")
        object.__setattr__(self, "intrinsics", K)
        object.__setattr__(self, "pose", P)

    @property
    def position(self) -> np.ndarray:
        return self.pose[:3, 3]

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        """Transform (N,3) world points into camera coordinates."""
        p = np.asarray(points, dtype=np.float64)
        R = self.pose[:3, :3]
        t = self.pose[:3, 3]
        return (p - t) @ R  # R^T (p - t), row-vector form

    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project (N,3) world points; returns pixel coords (N,2) and depths (N,).

        Points at or behind the camera plane get non-finite pixel coords.
        """
        pc = self.world_to_camera(np.atleast_2d(points))
        z = pc[:, 2]
        with np.errstate(divide="ignore", invalid="ignore"):
            u = self.intrinsics[0, 0] * pc[:, 0] / z + self.intrinsics[0, 2]
            v = self.intrinsics[1, 1] * pc[:, 1] / z + self.intrinsics[1, 2]
        bad = z <= 0
        u[bad] = np.nan
        v[bad] = np.nan
        return np.stack([u, v], axis=1), z

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Frustum test for (N,3) world points, by depth range and image bounds."""
        uv, z = self.project(points)
        with np.errstate(invalid="ignore"):
            ok = (z >= self.near) & (z <= self.far)
            ok &= (uv[:, 0] >= 0) & (uv[:, 0] < self.width)
            ok &= (uv[:, 1] >= 0) & (uv[:, 1] < self.height)
        return ok

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
