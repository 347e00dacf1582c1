"""Axis-aligned semantic voxel grids and their binary file format.

Probability grids hold C channels per voxel: occupied classes 0..C-2
followed by the empty channel C-1, summing to one. Label grids hold one
integer per voxel with the same class indexing (C-1 = empty).

This module owns grid geometry: a finite origin, a finite positive voxel
size, dims >= 1, 2 to MAX_CLASSES classes, at most MAX_GRID_CELLS
voxels x classes, and float64 steps of at most 2^-CENTRE_BITS voxel sizes
as far out as the grid reaches, so that its voxel centres stay apart.
`check_geometry` is the one check of it, which every `VoxelGrid`, `.vgrid`
header, scene and render passes before an int cast or an allocation.
`VoxelGrid.voxel_span` is the one rule from a world box to the voxels
whose centres it holds.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import NUM_CLASSES
from .errors import FormatError, InvalidInputError

PROB_MODE = 0
LABEL_MODE = 1

_MAGIC = b"VGRD"
_VERSION = 1
_HEADER = struct.Struct("<4sIBI3I3dd")  # magic, version, mode, C, dims, origin, voxel_size
_PAYLOAD_DTYPE = {PROB_MODE: "<f4", LABEL_MODE: "<u2"}

# Largest voxels x classes of a grid: its float32 render takes 512 MiB.
# Labels are uint16, so a grid has at most 2^16 classes.
MAX_GRID_CELLS = 2**27
MAX_CLASSES = 2**16
# A voxel spans at least 2^CENTRE_BITS float64 steps anywhere on the grid,
# so each centre, rounded once or twice, stays far from its neighbours.
CENTRE_BITS = 20


def check_geometry(origin, voxel_size, dims, num_classes) -> None:
    """Raise InvalidInputError unless the values place a valid grid: a
    finite origin, 0 < voxel_size < inf, every dim >= 1, 2 <= C <=
    MAX_CLASSES, at most MAX_GRID_CELLS voxels x C, and a float64 step
    (ulp) at max|origin| + max(dims) x voxel_size, the farthest a
    coordinate of the grid reaches, of at most voxel_size x
    2^-CENTRE_BITS. Dims may be floats of any size, so the check runs
    before they are cast or allocated."""
    origin = [float(v) for v in origin]
    dims = [float(d) for d in dims]
    if not (len(origin) == 3 and all(map(math.isfinite, origin))):
        raise InvalidInputError(f"grid origin must be 3 finite values, got {origin}")
    if not 0 < voxel_size < math.inf:
        raise InvalidInputError(f"voxel size must be finite and positive, got {voxel_size}")
    if not (len(dims) == 3 and all(d >= 1 for d in dims)):  # NaN fails too
        raise InvalidInputError(f"grid dims must all be >= 1, got {dims}")
    if not 2 <= num_classes <= MAX_CLASSES:
        raise InvalidInputError(f"classes must lie in [2, {MAX_CLASSES}], got {num_classes}")
    voxels = math.prod(dims)  # a float product past its range is inf
    if voxels * num_classes > MAX_GRID_CELLS:
        raise InvalidInputError(f"{voxels:.4g} voxels x {num_classes} classes "
                                f"exceed {MAX_GRID_CELLS}")
    reach = max(map(abs, origin)) + max(dims) * voxel_size  # inf past range
    if not math.ulp(reach) <= voxel_size * 2.0**-CENTRE_BITS:
        raise InvalidInputError(f"voxel size {voxel_size} is under 2^{CENTRE_BITS} float64 "
                                f"steps ({math.ulp(reach):.3g}) at {reach:.4g}, so voxel "
                                f"centres would coincide")


@dataclass
class VoxelGrid:
    """Dense voxel grid with world placement metadata.

    values has shape (nx, ny, nz, C) float32, the precision of the
    `.vgrid` payload, in probability mode or (nx, ny, nz) uint16 in label
    mode. Voxel (0,0,0) occupies the cube whose lower corner sits at
    `origin`; sampling points are voxel centers.
    """

    origin: np.ndarray
    voxel_size: float
    dims: tuple[int, int, int]
    values: np.ndarray
    mode: int = PROB_MODE
    num_classes: int = NUM_CLASSES

    def __post_init__(self):
        check_geometry(self.origin, self.voxel_size, self.dims, self.num_classes)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        if self.mode == PROB_MODE:
            expect = self.dims + (self.num_classes,)
            self.values = np.asarray(self.values, dtype=np.float32)
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
    def empty_labels(cls, origin, voxel_size, dims, num_classes) -> "VoxelGrid":
        """All-empty label grid; dims may be floats, checked before the cast."""
        check_geometry(origin, voxel_size, dims, num_classes)
        dims = tuple(int(d) for d in dims)
        vals = np.full(dims, num_classes - 1, dtype=np.uint16)
        return cls(origin, voxel_size, dims, vals, LABEL_MODE, num_classes)

    def axis_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            self.origin[a] + (np.arange(self.dims[a]) + 0.5) * self.voxel_size
            for a in range(3)
        )

    def voxel_span(self, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """Int64 index ranges (i0, i1), shaped like `lo` and `hi`, of the
        voxels whose centres lie in the world box [lo, hi] along each axis
        (closed at both ends). The indices are clamped in float before the
        cast, i0 to [0, dims] and i1 to [-1, dims - 1], so any bound, inf
        included, gives a valid range, and i0 > i1 where no centre lies in
        the box. Bounds must not be NaN."""
        dims = np.asarray(self.dims, dtype=np.float64)
        with np.errstate(over="ignore"):  # a bound past float range clamps as inf
            i0 = np.ceil((lo - self.origin) / self.voxel_size - 0.5)
            i1 = np.floor((hi - self.origin) / self.voxel_size - 0.5)
        return (np.clip(i0, 0, dims).astype(np.int64),
                np.clip(i1, -1, dims - 1).astype(np.int64))

    def voxel_of(self, points: np.ndarray) -> np.ndarray:
        """Voxel index floor((p - origin) / voxel_size) of each (N, 3) point,
        clamped in float to [-1, dims] before the cast, so that a point off
        the grid keeps an index off it."""
        i = np.floor((np.atleast_2d(points) - self.origin) / self.voxel_size)
        return np.clip(i, -1, self.dims).astype(np.int64)

    def check_normalized(self, tol: float = 1e-5) -> None:
        if self.mode != PROB_MODE:
            raise InvalidInputError("normalization applies to probability grids")
        sums = self.values.sum(axis=-1, dtype=np.float64)
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
    header = _HEADER.pack(_MAGIC, _VERSION, grid.mode, grid.num_classes, *grid.dims,
                          *grid.origin.tolist(), grid.voxel_size)
    with open(path, "wb") as f:
        f.write(header)
        # one z-plane at a time, so no copy of the whole grid is made
        for plane in grid.values.swapaxes(0, 2):
            f.write(np.ascontiguousarray(plane, dtype=_PAYLOAD_DTYPE[grid.mode]).data)


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
    try:
        check_geometry((ox, oy, oz), vs, (nx, ny, nz), C)
    except InvalidInputError as e:
        raise FormatError(f"vgrid header: {e}") from e
    prob = mode == PROB_MODE
    shape = (nz, ny, nx, C) if prob else (nz, ny, nx)
    dtype = np.dtype(_PAYLOAD_DTYPE[mode])
    size = len(raw) - _HEADER.size
    expect = math.prod(shape) * dtype.itemsize
    if size != expect:
        raise FormatError(f"vgrid payload is {size} bytes, expected {expect}")
    vals = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(shape).swapaxes(0, 2)
    if prob and not np.all(np.isfinite(vals)):
        raise FormatError("vgrid probabilities hold non-finite values")
    if not prob and vals.max() >= C:
        raise FormatError(f"vgrid labels reach {vals.max()}, need < C={C}")
    return VoxelGrid((ox, oy, oz), vs, (nx, ny, nz), vals.copy(), mode, C)
