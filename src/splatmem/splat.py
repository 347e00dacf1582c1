"""Decoupled Gaussian-to-voxel splatting.

A primitive contributes to every voxel of the block covered by the
cells its ellipsoid, truncated at TRUNCATION_SIGMAS, overlaps: the
cells are cubes of CELL_FACTOR voxels anchored at the world origin, and
the ellipsoid is bounded by its axis-aligned box. A truncation wider than
the grid makes the block the whole grid, and the result coincides with a
dense all-pairs evaluation.

Rendering computes all blocks in one vectorised pass, then walks the
primitives with a non-empty block in index order, in chunks of at most
_CHUNK_PAIRS (primitive, voxel) pairs. Within a chunk the primitives are
grouped by block shape, and each group's kernel values are evaluated as
one (G, ex, ey, ez) array with the operation order of a per-primitive
loop. The blocks are then scattered in ascending primitive index onto the
union box of the blocks, so every voxel multiplies its opacity terms and
adds its density and class terms in the same order as that loop, and the
fields are bit-identical to it. A flat pair list reduced by `np.multiply.at` and
`np.add.at` is also bit-identical, but slower than the per-primitive loop
itself; a log-domain opacity product changes the last bits of the result.
`render` finalises only that box, in place in its output; every other
voxel takes the channels (0, ..., 0, 1) a full-grid pass gives it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PrimitiveBatch, quats_to_rotations
from .errors import InvalidInputError
from .grid import LABEL_MODE, PROB_MODE, VoxelGrid

TRUNCATION_SIGMAS = 3.0
# Support cells are 4 voxels per side.
CELL_FACTOR = 4.0
# (primitive, voxel) pairs evaluated at once; bounds the per-chunk arrays
# to a few MiB whatever the batch size (a chunk still holds at least one
# primitive).
_CHUNK_PAIRS = 1 << 17


@dataclass
class SplatFields:
    """Fields of one splatting pass, accumulated over `box`, the union of
    the primitives' blocks; a voxel outside it has alpha 0, uniform
    semantics and zero density."""

    dims: tuple[int, int, int]
    box: tuple[slice, slice, slice]
    keep: np.ndarray  # over the box: running product of (1 - a_i k_i)
    acc: np.ndarray   # over the box: density, then density-weighted class probs

    def box_semantics(self, out: np.ndarray) -> None:
        """Write the box's class distributions, uniform where the density
        is zero, into `out` (box shape, C-1 channels)."""
        undefined = self.acc[..., 0] == 0.0
        np.divide(self.acc[..., 1:], self.acc[..., :1], out=out, where=~undefined[..., None])
        out[undefined] = 1.0 / out.shape[-1]


def _voxel_span(means, half, origin, voxel_size, cell_size, dims):
    """Voxel index ranges, (N, 3) each, covered by the cells each support
    AABB overlaps; lo > hi on an axis where the block misses the grid."""
    lo_cell = np.floor((means - half) / cell_size)
    hi_cell = np.floor((means + half) / cell_size)
    lo_world = lo_cell * cell_size
    hi_world = (hi_cell + 1.0) * cell_size
    lo_i = np.ceil((lo_world - origin) / voxel_size - 0.5).astype(np.int64)
    hi_i = np.floor((hi_world - origin) / voxel_size - 0.5).astype(np.int64)
    lo_i = np.maximum(lo_i, 0)
    hi_i = np.minimum(hi_i, np.asarray(dims) - 1)
    return lo_i, hi_i


def _chunks(pairs: np.ndarray, budget: int):
    """(start, stop) runs of consecutive items whose pair counts sum to at
    most `budget`; a run always holds at least one item."""
    ends = np.cumsum(pairs)
    start = 0
    while start < len(ends):
        base = ends[start - 1] if start else 0
        stop = max(int(np.searchsorted(ends, base + budget, side="right")),
                   start + 1)
        yield start, stop
        start = stop


def _kernel_blocks(axes, means, inv_cov, opacities, pdf_norm, lo, shape):
    """Opacity factors 1 - a k and densities k / pdf_norm of G primitives
    that share one block shape, as (G, ex, ey, ez) arrays.

    Each element is computed with the operations, in the order, of the
    per-primitive quadratic form, e.g. ((2 A01) dx) dy.
    """
    dx, dy, dz = (axes[a][lo[:, a, None] + np.arange(w)] - means[:, a, None]
                  for a, w in enumerate(shape))
    X = dx[:, :, None, None]
    Y = dy[:, None, :, None]
    Z = dz[:, None, None, :]
    A = inv_cov[:, :, :, None, None, None]
    q = (
        A[:, 0, 0] * X**2
        + A[:, 1, 1] * Y**2
        + A[:, 2, 2] * Z**2
        + 2.0 * A[:, 0, 1] * X * Y
        + 2.0 * A[:, 0, 2] * X * Z
        + 2.0 * A[:, 1, 2] * Y * Z
    )
    k = np.exp(-0.5 * q)
    return (1.0 - opacities[:, None, None, None] * k,
            k / pdf_norm[:, None, None, None])


def splat_fields(grid: VoxelGrid, primitives: PrimitiveBatch) -> SplatFields:
    """Accumulate the opacity and semantic fields at voxel centers over the
    union box of the primitives' blocks."""
    b = primitives
    n = len(b)
    c_occ = b.n_logits if n else grid.num_classes - 1
    R = quats_to_rotations(b.rotations)
    s2 = b.scales**2
    # half extents of each truncated ellipsoid's world AABB
    half = TRUNCATION_SIGMAS * np.sqrt(np.einsum("nab,nb->na", R**2, s2))
    lo, hi = _voxel_span(b.means, half, grid.origin, grid.voxel_size,
                         grid.voxel_size * CELL_FACTOR, grid.dims)
    ext = hi - lo + 1
    live = np.flatnonzero(np.all(ext > 0, axis=1))
    box_lo = lo[live].min(axis=0) if len(live) else np.zeros(3, dtype=np.int64)
    box_hi = hi[live].max(axis=0) + 1 if len(live) else box_lo
    box = tuple(slice(a, b) for a, b in zip(box_lo.tolist(), box_hi.tolist()))
    keep = np.ones(tuple(box_hi - box_lo))
    # channel 0: sum of pdf values; then density-weighted class probs
    acc = np.zeros(keep.shape + (c_occ + 1,))
    axes = grid.axis_centers()
    inv_cov = np.einsum("nab,nb,ncb->nac", R, 1.0 / s2, R)
    pdf_norm = (2.0 * np.pi) ** 1.5 * np.prod(b.scales, axis=1)
    e = np.exp(b.logits - b.logits.max(axis=1, keepdims=True))
    class_probs = e / e.sum(axis=1, keepdims=True)
    # 1.0 * p == p, so channel 0 accumulates the density itself
    channel_weights = np.concatenate([np.ones((n, 1)), class_probs], axis=1)
    pairs = np.prod(ext[live], axis=1)
    # one reused buffer for each block's channel products
    scratch = np.empty(int(pairs.max(initial=0)) * (c_occ + 1))
    for start, stop in _chunks(pairs, _CHUNK_PAIRS):
        idx = live[start:stop]
        shapes, group = np.unique(ext[idx], axis=0, return_inverse=True)
        blocks = [None] * len(idx)
        for g, shape in enumerate(shapes.tolist()):
            members = np.flatnonzero(group == g)
            rows = idx[members]
            factors, pdfs = _kernel_blocks(
                axes, b.means[rows], inv_cov[rows], b.opacities[rows],
                pdf_norm[rows], lo[rows], shape,
            )
            for j, m in enumerate(members.tolist()):
                blocks[m] = (factors[j], pdfs[j])
        # Ascending primitive index: the order of the per-primitive loop.
        for i, l, h, (factor, p) in zip(idx.tolist(), (lo[idx] - box_lo).tolist(),
                                        (hi[idx] - box_lo + 1).tolist(), blocks):
            sl = tuple(map(slice, l, h))
            keep[sl] *= factor
            # With no summed index, einsum rounds each p * w_c once, like
            # a broadcast product, but its inner loop does not run over
            # the few channels.
            w = channel_weights[i]
            prod = scratch[:p.size * w.size].reshape(p.shape + w.shape)
            acc[sl] += np.einsum("xyz,c->xyzc", p, w, out=prod)
    return SplatFields(grid.dims, box, keep, acc)


def render(grid: VoxelGrid, primitives: PrimitiveBatch) -> VoxelGrid:
    """Render primitives into a probability grid.

    Per-voxel channels are (alpha * e_1, ..., alpha * e_{C-1}, 1 - alpha).
    """
    f = splat_fields(grid, primitives)
    c_occ = f.acc.shape[-1] - 1
    values = np.zeros(grid.dims + (c_occ + 1,))
    values[..., c_occ] = 1.0
    out = values[f.box]
    f.box_semantics(out[..., :c_occ])
    alpha = np.subtract(1.0, f.keep, out=f.keep)  # keep is not read again
    out[..., :c_occ] *= alpha[..., None]
    np.subtract(1.0, alpha, out=out[..., c_occ])
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
