"""Decoupled Gaussian-to-voxel splatting.

A primitive contributes to every voxel of the block covered by the
cells its truncated ellipsoid (default 3 sigma) overlaps: the cells are
cubes of CELL_FACTOR voxels anchored at the world origin, and the
ellipsoid is bounded by its axis-aligned box. Rendering walks the
primitives and scatters each one onto its block. With truncation
disabled the block is the whole grid and the result coincides with a
dense all-pairs evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PrimitiveBatch, quats_to_rotations
from .errors import InvalidInputError
from .grid import LABEL_MODE, PROB_MODE, VoxelGrid

DEFAULT_TRUNCATION_SIGMAS = 3.0
# Support cells are 4 voxels per side.
CELL_FACTOR = 4.0


@dataclass
class SplatFields:
    """Raw per-voxel fields produced by one splatting pass."""

    alpha: np.ndarray            # (nx, ny, nz)
    semantics: np.ndarray        # (nx, ny, nz, C-1), rows sum to 1
    undefined: np.ndarray        # (nx, ny, nz) bool: zero total density


def _voxel_span(mean, half, origin, voxel_size, cell_size, dims):
    """Voxel index ranges covered by the cells the support AABB overlaps."""
    lo_cell = np.floor((mean - half) / cell_size)
    hi_cell = np.floor((mean + half) / cell_size)
    lo_world = lo_cell * cell_size
    hi_world = (hi_cell + 1.0) * cell_size
    lo_i = np.ceil((lo_world - origin) / voxel_size - 0.5).astype(np.int64)
    hi_i = np.floor((hi_world - origin) / voxel_size - 0.5).astype(np.int64)
    lo_i = np.maximum(lo_i, 0)
    hi_i = np.minimum(hi_i, np.asarray(dims) - 1)
    return lo_i, hi_i


def splat_fields(
    grid: VoxelGrid,
    primitives: PrimitiveBatch,
    truncation_radius_sigmas: float = DEFAULT_TRUNCATION_SIGMAS,
) -> SplatFields:
    """Evaluate the opacity and semantic fields at voxel centers."""
    b = primitives
    n = len(b)
    cell_size = grid.voxel_size * CELL_FACTOR
    nx, ny, nz = grid.dims
    c_occ = b.n_logits if n else grid.num_classes - 1

    keep = np.ones((nx, ny, nz))            # running product of (1 - a_i k_i)
    dens = np.zeros((nx, ny, nz))           # sum of pdf values
    sem = np.zeros((nx, ny, nz, c_occ))     # density-weighted class probs

    ax, ay, az = grid.axis_centers()
    finite = np.isfinite(truncation_radius_sigmas)
    if n:
        R = quats_to_rotations(b.rotations)
        s2 = b.scales**2
        inv_cov = np.einsum("nab,nb,ncb->nac", R, 1.0 / s2, R)
        pdf_norm = (2.0 * np.pi) ** 1.5 * np.prod(b.scales, axis=1)
        e = np.exp(b.logits - b.logits.max(axis=1, keepdims=True))
        class_probs = e / e.sum(axis=1, keepdims=True)
        # half extents of each truncated ellipsoid's world AABB
        half_all = (
            truncation_radius_sigmas * np.sqrt(np.einsum("nab,nb->na", R**2, s2))
            if finite
            else np.zeros((n, 3))
        )
    for i in range(n):
        if finite:
            lo, hi = _voxel_span(
                b.means[i], half_all[i], grid.origin, grid.voxel_size,
                cell_size, grid.dims,
            )
            if np.any(lo > hi):
                continue
        else:
            lo, hi = np.zeros(3, dtype=np.int64), np.asarray(grid.dims) - 1
        sl = tuple(slice(lo[a], hi[a] + 1) for a in range(3))
        dx = ax[sl[0]] - b.means[i, 0]
        dy = ay[sl[1]] - b.means[i, 1]
        dz = az[sl[2]] - b.means[i, 2]
        A = inv_cov[i]
        q = (
            A[0, 0] * dx[:, None, None] ** 2
            + A[1, 1] * dy[None, :, None] ** 2
            + A[2, 2] * dz[None, None, :] ** 2
            + 2.0 * A[0, 1] * dx[:, None, None] * dy[None, :, None]
            + 2.0 * A[0, 2] * dx[:, None, None] * dz[None, None, :]
            + 2.0 * A[1, 2] * dy[None, :, None] * dz[None, None, :]
        )
        k = np.exp(-0.5 * q)
        keep[sl] *= 1.0 - b.opacities[i] * k
        p = k / pdf_norm[i]
        dens[sl] += p
        sem[sl] += p[..., None] * class_probs[i]

    alpha = 1.0 - keep
    undefined = dens == 0.0
    sem_out = np.empty_like(sem)
    safe = np.where(undefined, 1.0, dens)
    sem_out[:] = sem / safe[..., None]
    sem_out[undefined] = 1.0 / c_occ
    return SplatFields(alpha, sem_out, undefined)


def render(
    grid: VoxelGrid,
    primitives: PrimitiveBatch,
    truncation_radius_sigmas: float = DEFAULT_TRUNCATION_SIGMAS,
) -> VoxelGrid:
    """Render primitives into a probability grid.

    Per-voxel channels are (alpha * e_1, ..., alpha * e_{C-1}, 1 - alpha).
    """
    f = splat_fields(grid, primitives, truncation_radius_sigmas)
    c_occ = f.semantics.shape[-1]
    values = np.empty(grid.dims + (c_occ + 1,))
    values[..., :c_occ] = f.alpha[..., None] * f.semantics
    values[..., c_occ] = 1.0 - f.alpha
    return VoxelGrid(
        grid.origin.copy(), grid.voxel_size, grid.dims, values,
        PROB_MODE, c_occ + 1,
    )


def argmax_labels(grid: VoxelGrid) -> VoxelGrid:
    """Reduce a probability grid to labels.

    np.argmax keeps the first maximum, so ties resolve to the lowest class
    index and the empty channel (last) loses any tie against an occupied
    class.
    """
    if grid.mode != PROB_MODE:
        raise InvalidInputError("argmax_labels expects a probability grid")
    labels = np.argmax(grid.values, axis=-1).astype(np.uint16)
    return VoxelGrid(
        grid.origin.copy(), grid.voxel_size, grid.dims, labels,
        LABEL_MODE, grid.num_classes,
    )
