"""Decoupled Gaussian-to-voxel splatting.

A primitive contributes to every voxel of the block covered by the
cells its ellipsoid, truncated at TRUNCATION_SIGMAS, overlaps: the
cells are cubes of CELL_FACTOR voxels anchored at the world origin, and
the ellipsoid is bounded by its axis-aligned box. A primitive wider than
the grid, however wide, covers the whole grid (`VoxelGrid.voxel_span`
clamps its block), and the result coincides with a dense all-pairs
evaluation.

Rendering splats by tiles, cubes of CELL_FACTOR voxels placed where the
cells' blocks start: a block is whole tiles bar the voxel layer it shares
with the next block when voxel centres lie on cell faces, and a (primitive,
tile) pair leaves the voxels off its block as they are. The tiles are cut
into slabs of consecutive x-layers, each holding about _SLAB_PAIRS pairs or
one layer, and every tile lies in one slab. Within a slab the pairs, stably
sorted by tile, take their rank within it; round r applies each tile's r-th
primitive to a prefix of the tiles by descending depth. So each voxel takes
its terms in ascending primitive index, with the operations of a
per-primitive loop in its order, and the fields are bit-identical to it.
Memory: the per-primitive setup that every slab reads (the inverse
covariances, blocks, tile ranges, pdf norms and channel weights: 37
numbers, 236 B, a primitive at 12 classes). Then, for one slab at a time
and freed before the next: C + 1 numbers per tile voxel, up to six
integers per pair while ranking and one after, and about _CHUNK_PAIRS
floats per kernel or product array. `render`
finalises each slab's tiles in place, in float64, and scatters them into its
float32 output before the next slab, where every other voxel takes the
(0, ..., 0, 1) of a full-grid pass: each channel rounds once, as the `.vgrid`
payload does. With `labels` it scatters the first maximum of each tile
voxel's rounded channels instead, and every other voxel takes C - 1: the
uint16 label grid is then its only full-grid array. Either way, what the
render holds beyond its output grows with the batch only by its setup
while no x-layer holds more than _SLAB_PAIRS pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PrimitiveBatch, quats_to_rotations
from .errors import InvalidInputError
from .grid import LABEL_MODE, PROB_MODE, VoxelGrid, check_geometry

TRUNCATION_SIGMAS = 3.0
# Support cells are 4 voxels per side; so are the render's tiles.
CELL_FACTOR = 4
# (primitive, tile) pairs ranked at once: a slab of x-layers of tiles holds
# about this many, whatever the batch size (a slab still holds one layer).
_SLAB_PAIRS = 1 << 14
# (primitive, voxel) pairs evaluated at once: per-chunk arrays stay under a
# MiB whatever the slab (a chunk still holds at least one round).
_CHUNK_PAIRS = 1 << 16


@dataclass
class SplatFields:
    """Fields of one slab of a splatting pass over its occupied tiles; a
    voxel in no tile has alpha 0, uniform semantics and zero density."""

    dims: tuple[int, int, int]
    idx: list           # per axis, (CELL_FACTOR, T) voxel indices of the tiles
    keep: np.ndarray    # (T, V) running product of (1 - a_i k_i)
    acc: np.ndarray     # (T, C, V) density-weighted class probs, then density


def _voxel_span(grid: VoxelGrid, means, half):
    """Voxel index ranges, (N, 3) each, covered by the cells each support
    AABB overlaps; lo > hi on an axis where the block misses the grid."""
    cell_size = grid.voxel_size * CELL_FACTOR
    lo_world = np.floor((means - half) / cell_size) * cell_size
    hi_world = (np.floor((means + half) / cell_size) + 1.0) * cell_size
    return grid.voxel_span(lo_world, hi_world)


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


def _rounds(first, extent, shape):
    """Rank the (primitive, tile) pairs within their tiles; primitive i
    covers tiles first[i] + [0, extent[i]) of a `shape` array. Returns the
    occupied tile ids by descending depth, the number m_r of tiles round r
    touches, and each pair's primitive by (rank, tile position). Per-pair
    arrays, the bulk of the memory, are dropped once used."""
    count = np.prod(extent, axis=1)
    prim = np.repeat(np.arange(len(count)), count)
    rest = np.arange(len(prim)) - np.repeat(np.cumsum(count) - count, count)
    tiles, stride = np.zeros_like(prim), 1
    for a in (2, 1, 0):
        e = extent[prim, a]
        tiles += (first[prim, a] + rest % e) * stride
        rest //= e
        stride *= shape[a]
    del rest, e
    by_tile = np.argsort(tiles, kind="stable")
    tiles, prim = tiles[by_tile], prim[by_tile]
    first = np.flatnonzero(np.diff(tiles, prepend=-1))
    tiles, depth = tiles[first], np.diff(first, append=len(prim))
    by_depth = np.argsort(-depth, kind="stable")
    touched = len(depth) - np.cumsum(np.bincount(depth))[:-1]
    # a pair goes to its rank's round, at its tile's position by depth
    dest = np.concatenate([[0], np.cumsum(touched)])[np.arange(len(prim))
                                                     - np.repeat(first, depth)]
    dest += np.repeat(np.argsort(by_depth), depth)
    order = np.empty_like(prim)
    order[dest] = prim
    return tiles[by_depth], touched, order


def _flat_voxels(idx, dims):
    """Flat grid index of each tile voxel, (T, V), from `idx` as in
    SplatFields; -1 past the grid's edges, where `off` makes it < 0."""
    off = -np.prod(dims)
    x, y, z = (np.where((i >= 0) & (i < d), i * s, off).T
               for i, d, s in zip(idx, dims, (dims[1] * dims[2], dims[2], 1)))
    flat = x[:, :, None, None] + y[:, None, :, None] + z[:, None, None, :]
    return np.maximum(flat, -1).reshape(len(flat), CELL_FACTOR**3)


def _kernel(coords, inside, means, A, opacities, pdf_norm):
    """Opacity factors 1 - a k and densities k / pdf_norm, both (n, V), of n
    (primitive, tile) pairs from their tiles' voxel centres, (CELL_FACTOR, n)
    per axis, over (x, y, z, pair) with the operations, in the order, of the
    per-primitive form, e.g. ((2 A01) dx) dy. Where `inside` is False, off
    the block, q = inf gives the no-op k = 0; adding 0 keeps every other q."""
    dx, dy, dz = (c - means[:, a] for a, c in enumerate(coords))
    px, py, pz = (np.where(m, 0.0, np.inf) for m in inside)
    q = (A[:, 0, 0] * dx**2 + px)[:, None] + (A[:, 1, 1] * dy**2 + py)
    q = q[:, :, None] + (A[:, 2, 2] * dz**2 + pz)
    q += (2.0 * A[:, 0, 1] * dx[:, None] * dy)[:, :, None]
    q += (2.0 * A[:, 0, 2] * dx[:, None] * dz)[:, None]
    q += 2.0 * A[:, 1, 2] * dy[:, None] * dz
    k = np.exp(np.multiply(q, -0.5, out=q), out=q).reshape(CELL_FACTOR**3, -1)
    # the densities, which every channel reads, go pair-major
    den = np.divide(k.T, pdf_norm[:, None], out=np.empty(k.T.shape))
    return np.subtract(1.0, np.multiply(k, opacities, out=k), out=k).T, den


def splat_slabs(grid: VoxelGrid, primitives: PrimitiveBatch):
    """Accumulate the opacity and semantic fields at voxel centers over the
    tiles that the primitives' blocks cover, yielding one SplatFields per
    slab of consecutive x-layers of tiles. Every tile lies in one slab."""
    b = primitives
    R = quats_to_rotations(b.rotations)
    s2 = b.scales**2
    cell = grid.voxel_size * CELL_FACTOR
    # half extents of each truncated ellipsoid's world AABB
    half = TRUNCATION_SIGMAS * np.sqrt(np.einsum("nab,nb->na", R**2, s2))
    inv_cov = np.einsum("nab,nb,ncb->nac", R, 1.0 / s2, R)
    lo, hi = (x.astype(np.int32) for x in _voxel_span(grid, b.means, half))
    del R, s2, half
    live = np.flatnonzero(np.all(lo <= hi, axis=1)).astype(np.int32)
    # tiles every CELL_FACTOR voxels from the unclipped lo of the origin's
    # cell, in [-CELL_FACTOR, 0] (clipped there against rounding)
    start = np.ceil((np.floor(grid.origin / cell) * cell - grid.origin) / grid.voxel_size
                    - 0.5)
    start = np.clip(start, -CELL_FACTOR, 0).astype(np.int32)
    shape = tuple((np.asarray(grid.dims) - 1 - start) // CELL_FACTOR + 1)
    first, last = ((x[live] - start) // CELL_FACTOR for x in (lo, hi))
    pdf_norm = (2.0 * np.pi) ** 1.5 * np.prod(b.scales, axis=1)
    # class probabilities, then 1.0: 1.0 * p == p, so acc's last channel is the density
    channel_weights = np.ones((len(b), b.n_logits + 1))
    e = np.exp(b.logits - b.logits.max(axis=1, keepdims=True), out=channel_weights[:, :-1])
    e /= e.sum(axis=1, keepdims=True)
    # (primitive, tile) pairs per x-layer: a primitive has `plane` tiles in
    # each layer it covers
    plane = np.prod(last[:, 1:] - first[:, 1:] + 1, axis=1)
    layer_pairs = np.cumsum(np.bincount(first[:, 0], plane, shape[0])
                            - np.bincount(last[:, 0] + 1, plane, shape[0] + 1)[:-1])
    axes = grid.axis_centers()
    # the channel products of `step` tiles at a time; with no summed index,
    # einsum rounds each p * w_c once, like a product
    step = max(1, _CHUNK_PAIRS // ((b.n_logits + 1) * CELL_FACTOR**3))
    for x0, x1 in _chunks(layer_pairs, _SLAB_PAIRS):
        meets = np.flatnonzero((first[:, 0] < x1) & (last[:, 0] >= x0))
        # their tile ranges, clipped to the slab's layers
        lo_t, hi_t = first[meets], last[meets]
        np.maximum(lo_t[:, 0], x0, out=lo_t[:, 0])
        np.minimum(hi_t[:, 0], x1 - 1, out=hi_t[:, 0])
        tile_ids, touched, prim = _rounds(lo_t, hi_t - lo_t + 1, shape)
        prim = live[meets][prim]  # each pair's row of the batch
        idx = [s + CELL_FACTOR * t + np.arange(CELL_FACTOR)[:, None]
               for s, t in zip(start, np.unravel_index(tile_ids, shape))]
        keep = np.ones((len(tile_ids), CELL_FACTOR**3))
        acc = np.zeros((len(tile_ids), b.n_logits + 1, CELL_FACTOR**3))
        round_start = np.concatenate([[0], np.cumsum(touched)])
        for r0, r1 in _chunks(touched * CELL_FACTOR**3, _CHUNK_PAIRS):
            rows = prim[round_start[r0]:round_start[r1]]
            pos = np.concatenate([np.arange(m) for m in touched[r0:r1].tolist()])
            # np.take keeps the pair axis innermost, unlike i[:, pos]
            ix = [np.take(i, pos, axis=1) for i in idx]
            # a voxel past the grid's edge, never inside a block, takes its nearest centre
            fac, den = _kernel([ax[np.clip(i, 0, d - 1)]
                                for ax, i, d in zip(axes, ix, grid.dims)],
                               [(i >= lo[rows, a]) & (i <= hi[rows, a]) for a, i in enumerate(ix)],
                               b.means[rows], inv_cov[rows], b.opacities[rows], pdf_norm[rows])
            spans = [(round_start[r] - round_start[r0], int(touched[r])) for r in range(r0, r1)]
            for j, m in spans:
                keep[:m] *= fac[j:j + m]
            del fac  # before the products' buffer
            buf = np.empty((min(step, int(touched[r0])),) + acc.shape[1:])
            for j, m in spans:
                for t in range(0, m, step):
                    u = min(t + step, m)
                    acc[t:u] += np.einsum("nv,nc->ncv", den[j + t:j + u],
                                          channel_weights[rows[j + t:j + u]],
                                          out=buf[:u - t])
            del den, buf  # before the next chunk's kernel
        yield SplatFields(grid.dims, idx, keep, acc)
        del idx, keep, acc  # before the next slab is ranked


def _write_slab(f: SplatFields, flat: np.ndarray, labels: bool) -> None:
    """Finalise a slab's tiles in place and scatter them into `flat`, the
    output's voxels: the channels, or with `labels` their first maximum."""
    c_occ = f.acc.shape[1] - 1
    # the density channel becomes 1 - alpha
    sem, dens = f.acc[:, :c_occ], f.acc[:, c_occ]
    undefined = dens == 0.0
    np.divide(sem, dens[:, None], out=sem, where=~undefined[:, None])
    sem.transpose(0, 2, 1)[undefined] = 1.0 / c_occ
    alpha = np.subtract(1.0, f.keep, out=f.keep)
    sem *= alpha[:, None]
    np.subtract(1.0, alpha, out=dens)
    step = max(1, _CHUNK_PAIRS // np.prod(f.acc.shape[1:]))
    for t in range(0, len(f.acc), step):
        vox = _flat_voxels([i[:, t:t + step] for i in f.idx], f.dims)
        tiles = f.acc[t:t + step]
        # labels: the first maximum of the float32 channels, as argmax_labels
        # takes it; channels: each rounds to float32 once, here
        tiles = (np.argmax(tiles.astype(np.float32), axis=1) if labels
                 else tiles.transpose(0, 2, 1))
        flat[vox[vox >= 0]] = tiles[vox >= 0]


def render(grid: VoxelGrid, primitives: PrimitiveBatch, labels: bool = False) -> VoxelGrid:
    """Render primitives into a probability grid, or with `labels` into the
    label grid `argmax_labels` would make of it, byte for byte, without
    building the C-channel grid.

    Per-voxel channels are (alpha * e_1, ..., alpha * e_{C-1}, 1 - alpha),
    computed in float64 and stored in float32.
    Only the grid's geometry is read. InvalidInputError, before any
    allocation, if it fails `check_geometry` with the primitives' C.
    """
    check_geometry(grid.origin, grid.voxel_size, grid.dims, primitives.n_logits + 1)
    c_occ = primitives.n_logits
    if labels:
        # a voxel in no tile holds (0, ..., 0, 1), whose first maximum is C - 1
        values = np.full(grid.dims, c_occ, dtype=np.uint16)
        flat = values.reshape(-1)
    else:
        values = np.zeros(grid.dims + (c_occ + 1,), dtype=np.float32)
        values[..., c_occ] = 1.0
        flat = values.reshape(-1, c_occ + 1)
    for f in splat_slabs(grid, primitives):
        _write_slab(f, flat, labels)
        del f  # before the next slab is splatted
    return VoxelGrid(grid.origin.copy(), grid.voxel_size, grid.dims, values,
                     LABEL_MODE if labels else PROB_MODE, c_occ + 1)


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
