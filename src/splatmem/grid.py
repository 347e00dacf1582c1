"""Axis-aligned semantic voxel grids and their binary file format.

Probability grids hold C channels per voxel: occupied classes 0..C-2
followed by the empty channel C-1, summing to one. Label grids hold one
integer per voxel with the same class indexing (C-1 = empty).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .core import NUM_CLASSES, cell_of
from .errors import FormatError, InvalidInputError

PROB_MODE = 0
LABEL_MODE = 1

_MAGIC = b"VGRD"
_VERSION = 1
_HEADER = struct.Struct("<4sIBI3I3dd")  # magic, version, mode, C, dims, origin, voxel_size


@dataclass
class VoxelGrid:
    """Dense voxel grid with world placement metadata.

    values has shape (nx, ny, nz, C) float64 in probability mode or
    (nx, ny, nz) uint16 in label mode. Voxel (0,0,0) occupies the cube
    whose lower corner sits at `origin`; sampling points are voxel centers.
    """

    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]
    values: np.ndarray
    mode: int = PROB_MODE
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        if any(d < 1 for d in self.dims):
            raise InvalidInputError(f"dims must all be >= 1, got {self.dims}")
        if self.voxel_size <= 0:
            raise InvalidInputError("voxel_size must be positive")
        if self.mode == PROB_MODE:
            expect = self.dims + (self.num_classes,)
            self.values = np.asarray(self.values, dtype=np.float64)
        elif self.mode == LABEL_MODE:
            expect = self.dims
            self.values = np.asarray(self.values, dtype=np.uint16)
        else:
            raise InvalidInputError(f"unknown grid mode {self.mode}")
        if self.values.shape != expect:
            raise InvalidInputError(
                f"values shape {self.values.shape} does not match {expect}"
            )

    @classmethod
    def empty_prob(cls, origin, voxel_size, dims, num_classes=NUM_CLASSES) -> "VoxelGrid":
        """All-empty probability grid: channel C-1 is 1 everywhere."""
        vals = np.zeros(tuple(dims) + (num_classes,))
        vals[..., -1] = 1.0
        return cls(origin, voxel_size, tuple(dims), vals, PROB_MODE, num_classes)

    @classmethod
    def empty_labels(cls, origin, voxel_size, dims, num_classes=NUM_CLASSES) -> "VoxelGrid":
        vals = np.full(tuple(dims), num_classes - 1, dtype=np.uint16)
        return cls(origin, voxel_size, tuple(dims), vals, LABEL_MODE, num_classes)

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            self.origin[a] + (np.arange(self.dims[a]) + 0.5) * self.voxel_size
            for a in range(3)
        )

    def voxel_of(self, points: np.ndarray) -> np.ndarray:
        """Integer voxel index of each (N,3) point (floor semantics)."""
        return cell_of(np.atleast_2d(points), self.origin, self.voxel_size)

    def in_bounds(self, idx: np.ndarray) -> np.ndarray:
        idx = np.atleast_2d(idx)
        ok = np.ones(len(idx), dtype=bool)
        for a in range(3):
            ok &= (idx[:, a] >= 0) & (idx[:, a] < self.dims[a])
        return ok

    def check_normalized(self, tol: float = 1e-5) -> None:
        if self.mode != PROB_MODE:
            raise InvalidInputError("normalization applies to probability grids")
        sums = self.values.sum(axis=-1)
        worst = float(np.max(np.abs(sums - 1.0)))
        if worst > tol:
            raise InvalidInputError(f"channel sums deviate from 1 by {worst:.3e}")

    def same_geometry(self, other: "VoxelGrid") -> bool:
        return (
            self.dims == other.dims
            and np.allclose(self.origin, other.origin)
            and np.isclose(self.voxel_size, other.voxel_size)
        )


def save_vgrid(path, grid: VoxelGrid) -> None:
    """Write a grid as a `.vgrid` file.

    Layout (little-endian): header {magic "VGRD", version u32, mode u8,
    C u32, dims 3 x u32, origin 3 x f64, voxel_size f64}, then the payload
    with x the fastest-varying spatial index: f32 channel blocks per voxel
    in probability mode, u16 labels in label mode.
    """
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        grid.mode,
        grid.num_classes,
        *grid.dims,
        *grid.origin.tolist(),
        grid.voxel_size,
    )
    if grid.mode == PROB_MODE:
        payload = np.ascontiguousarray(
            grid.values.transpose(2, 1, 0, 3).astype(np.float32)
        ).tobytes()
    else:
        payload = np.ascontiguousarray(
            grid.values.transpose(2, 1, 0).astype("<u2")
        ).tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(payload)


def load_vgrid(path) -> VoxelGrid:
    """Read a `.vgrid` file; raises FormatError on malformed input."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise FormatError("vgrid file shorter than header")
    magic, version, mode, C, nx, ny, nz, ox, oy, oz, vs = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise FormatError(f"bad vgrid magic {magic!r}")
    if version != _VERSION:
        raise FormatError(f"unsupported vgrid version {version}")
    if mode not in (PROB_MODE, LABEL_MODE):
        raise FormatError(f"unknown vgrid mode {mode}")
    if min(nx, ny, nz) < 1:
        raise FormatError(f"vgrid dims {(nx, ny, nz)} must all be >= 1")
    if not (np.isfinite(vs) and vs > 0):
        raise FormatError(f"vgrid voxel size {vs} is not a positive number")
    if not np.all(np.isfinite((ox, oy, oz))):
        raise FormatError("vgrid origin is not finite")
    if C < 2:
        raise FormatError(f"vgrid header has C={C}; need C >= 2")
    payload = raw[_HEADER.size :]
    n_vox = nx * ny * nz
    if mode == PROB_MODE:
        expect = n_vox * C * 4
        if len(payload) != expect:
            raise FormatError(f"vgrid payload is {len(payload)} bytes, expected {expect}")
        vals = np.frombuffer(payload, dtype="<f4").reshape(nz, ny, nx, C)
        if not np.all(np.isfinite(vals)):
            raise FormatError("vgrid probabilities hold non-finite values")
        vals = vals.transpose(2, 1, 0, 3).astype(np.float64)
    else:
        expect = n_vox * 2
        if len(payload) != expect:
            raise FormatError(f"vgrid payload is {len(payload)} bytes, expected {expect}")
        vals = np.frombuffer(payload, dtype="<u2").reshape(nz, ny, nx)
        if vals.max() >= C:
            raise FormatError(f"vgrid labels reach {vals.max()}, need < C={C}")
        vals = vals.transpose(2, 1, 0).copy()
    return VoxelGrid((ox, oy, oz), vs, (nx, ny, nz), vals, mode, C)
