import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import splatmem.grid as grid_mod
import splatmem.splat as splat_mod
from oracle import GaussianPrimitive, from_primitives, kernel, splat_fields
from splatmem.core import PrimitiveBatch, quats_to_rotations
from splatmem.errors import InvalidInputError
from splatmem.grid import LABEL_MODE, PROB_MODE, VoxelGrid, load_vgrid, save_vgrid
from splatmem.splat import CELL_FACTOR, argmax_labels, render
from splatmem.synth import (DEFAULT_SCENE, NoiseParams, StubConfig, generate_scene,
                            generate_trajectory, scene_maps, stub_predict)

RNG = np.random.default_rng(11)
C = 12


def softmax(x):
    e = np.exp(x - np.max(x))
    return e / e.sum()


def make_grid(dims=(8, 8, 8), voxel_size=0.1, origin=(0, 0, 0)):
    return VoxelGrid.empty_labels(origin, voxel_size, dims, C)


def random_primitives(n, lo=0.0, hi=0.8, scale_range=(0.03, 0.12), seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    prims = []
    for _ in range(n):
        q = rng.normal(size=4)
        prims.append(
            GaussianPrimitive(
                rng.uniform(lo, hi, size=3),
                rng.uniform(*scale_range, size=3),
                q / np.linalg.norm(q),
                rng.uniform(0.1, 1.0),
                rng.normal(size=C - 1),
            )
        )
    return prims


def batch(prims):
    return from_primitives(prims) if prims else PrimitiveBatch.empty(C)


def dense_render_oracle(grid, prims):
    """Brute force: every primitive against every voxel center via the
    scalar core ops. Returns channel array shaped like a render result."""
    nx, ny, nz = grid.dims
    out = np.zeros((nx, ny, nz, C))
    sm = [softmax(g.logits) for g in prims]
    dens_norm = [(2 * np.pi) ** 1.5 * np.prod(g.scale) for g in prims]
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                x = grid.origin + (np.array([i, j, k]) + 0.5) * grid.voxel_size
                keep = 1.0
                dsum = 0.0
                snum = np.zeros(C - 1)
                for g, smx, dn in zip(prims, sm, dens_norm):
                    kv = kernel(x, g)
                    keep *= 1.0 - g.opacity * kv
                    p = kv / dn
                    dsum += p
                    snum += p * smx
                alpha = 1.0 - keep
                e = snum / dsum if dsum > 0 else np.full(C - 1, 1.0 / (C - 1))
                out[i, j, k, : C - 1] = alpha * e
                out[i, j, k, C - 1] = 1.0 - alpha
    return out


def loop_splat_fields(grid, b, truncation_radius_sigmas=3.0):
    """Reference: one primitive at a time, each scattered onto its block
    as soon as it is evaluated."""
    n = len(b)
    cell_size = grid.voxel_size * CELL_FACTOR
    nx, ny, nz = grid.dims
    c_occ = b.n_logits if n else grid.num_classes - 1
    keep = np.ones((nx, ny, nz))
    dens = np.zeros((nx, ny, nz))
    sem = np.zeros((nx, ny, nz, c_occ))
    ax, ay, az = grid.axis_centers()
    finite = np.isfinite(truncation_radius_sigmas)
    if n:
        R = quats_to_rotations(b.rotations)
        s2 = b.scales**2
        inv_cov = np.einsum("nab,nb,ncb->nac", R, 1.0 / s2, R)
        pdf_norm = (2.0 * np.pi) ** 1.5 * np.prod(b.scales, axis=1)
        e = np.exp(b.logits - b.logits.max(axis=1, keepdims=True))
        class_probs = e / e.sum(axis=1, keepdims=True)
        half_all = (
            truncation_radius_sigmas * np.sqrt(np.einsum("nab,nb->na", R**2, s2))
            if finite
            else np.zeros((n, 3))
        )
    for i in range(n):
        if finite:
            mean, half = b.means[i], half_all[i]
            lo_world = np.floor((mean - half) / cell_size) * cell_size
            hi_world = (np.floor((mean + half) / cell_size) + 1.0) * cell_size
            lo = np.ceil((lo_world - grid.origin) / grid.voxel_size - 0.5).astype(np.int64)
            hi = np.floor((hi_world - grid.origin) / grid.voxel_size - 0.5).astype(np.int64)
            lo = np.maximum(lo, 0)
            hi = np.minimum(hi, np.asarray(grid.dims) - 1)
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
    return alpha, sem_out, undefined


def kernel_blocks(axes, means, inv_cov, opacities, pdf_norm, lo, shape):
    """Opacity factors 1 - a k and densities k / pdf_norm of G primitives
    that share one block shape, as (G, ex, ey, ez) arrays, with the
    operations, in the order, of the per-primitive quadratic form."""
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


def full_grid_splat_fields(grid, b, truncation_radius_sigmas=3.0):
    """Reference: the batched walk over the whole grid, primitive by
    primitive with blocks grouped by shape, and every voxel finalised, as
    splatting was before it was bounded to the occupied voxels."""
    n = len(b)
    nx, ny, nz = grid.dims
    c_occ = b.n_logits if n else grid.num_classes - 1
    keep = np.ones((nx, ny, nz))
    acc = np.zeros((nx, ny, nz, c_occ + 1))
    axes = grid.axis_centers()
    if n:
        R = quats_to_rotations(b.rotations)
        s2 = b.scales**2
        inv_cov = np.einsum("nab,nb,ncb->nac", R, 1.0 / s2, R)
        pdf_norm = (2.0 * np.pi) ** 1.5 * np.prod(b.scales, axis=1)
        e = np.exp(b.logits - b.logits.max(axis=1, keepdims=True))
        class_probs = e / e.sum(axis=1, keepdims=True)
        channel_weights = np.concatenate([np.ones((n, 1)), class_probs], axis=1)
        if np.isfinite(truncation_radius_sigmas):
            half = truncation_radius_sigmas * np.sqrt(np.einsum("nab,nb->na", R**2, s2))
            lo, hi = splat_mod._voxel_span(grid, b.means, half)
        else:
            lo = np.zeros((n, 3), dtype=np.int64)
            hi = np.broadcast_to(np.asarray(grid.dims) - 1, (n, 3))
        ext = hi - lo + 1
        live = np.flatnonzero(np.all(ext > 0, axis=1))
        pairs = np.prod(ext[live], axis=1)
        for start, stop in splat_mod._chunks(pairs, splat_mod._CHUNK_PAIRS):
            idx = live[start:stop]
            shapes, group = np.unique(ext[idx], axis=0, return_inverse=True)
            blocks = [None] * len(idx)
            for g, shape in enumerate(shapes.tolist()):
                members = np.flatnonzero(group == g)
                rows = idx[members]
                factors, pdfs = kernel_blocks(
                    axes, b.means[rows], inv_cov[rows], b.opacities[rows],
                    pdf_norm[rows], lo[rows], shape)
                for j, m in enumerate(members.tolist()):
                    blocks[m] = (factors[j], pdfs[j])
            for i, l, h, (factor, p) in zip(idx.tolist(), lo[idx].tolist(),
                                            hi[idx].tolist(), blocks):
                sl = tuple(slice(l[a], h[a] + 1) for a in range(3))
                keep[sl] *= factor
                acc[sl] += np.einsum("xyz,c->xyzc", p, channel_weights[i])
    dens = acc[..., 0]
    alpha = 1.0 - keep
    undefined = dens == 0.0
    safe = np.where(undefined, 1.0, dens)
    sem_out = np.divide(acc[..., 1:], safe[..., None])
    sem_out[undefined] = 1.0 / c_occ
    return alpha, sem_out, undefined


def full_grid_render(grid, b, truncation_radius_sigmas=3.0):
    """Reference: the channels of every voxel built from the full-grid fields."""
    alpha, sem, _ = full_grid_splat_fields(grid, b, truncation_radius_sigmas)
    c_occ = sem.shape[-1]
    values = np.empty(grid.dims + (c_occ + 1,))
    np.multiply(alpha[..., None], sem, out=values[..., :c_occ])
    np.subtract(1.0, alpha, out=values[..., c_occ])
    return values


def assert_stored(out, channels):
    """`out` holds the float32 rounding of the float64 `channels`, bit for bit."""
    assert out.values.dtype == np.float32 and out.values.shape == channels.shape
    assert out.values.tobytes() == channels.astype(np.float32).tobytes()


def truncate_at(monkeypatch, sigmas):
    """Truncate the render at `sigmas`. inf becomes 1e9 sigmas, at which
    every block is the whole test grid, as at the references' inf."""
    monkeypatch.setattr(splat_mod, "TRUNCATION_SIGMAS", min(sigmas, 1e9))


def block_spans(grid, b):
    """Each primitive's block at 3 sigma, as (lo, hi) voxel indices."""
    R = quats_to_rotations(b.rotations)
    half = 3.0 * np.sqrt(np.einsum("nab,nb->na", R**2, b.scales**2))
    return splat_mod._voxel_span(grid, b.means, half)


# Grids other than make_grid()'s 0.8 m cube, by reference batch. At the
# half-voxel origin (exact in binary) voxel centres 0 and 4 lie on cell
# faces, so the blocks on either side of a face share that voxel; 7, 9 and
# 5 voxels end each axis in a partial tile. The offset origin puts the
# cells' first voxels off those of the grid's origin on every axis.
REFERENCE_GRIDS = {
    "half_voxel_origin": dict(voxel_size=0.125, origin=(-0.0625,) * 3),
    "odd_dims": dict(dims=(7, 9, 5)),
    "offset_origin": dict(dims=(16, 16, 16), origin=(0.07, -0.18, 0.31)),
}


def reference_grid(name):
    return make_grid(**REFERENCE_GRIDS.get(name, {}))


def reference_batches():
    """Seeded batches for the bit-identity tests, on a 0.8 m cube of voxels
    unless REFERENCE_GRIDS names another grid."""
    far = random_primitives(20, lo=2.0, hi=3.0, seed=35)
    far[5:10] = random_primitives(5, lo=-3.0, hi=-2.0, seed=36)
    # one primitive centred on each face of the cube, among inner ones
    faces = [dataclasses.replace(g, mean=np.where(np.arange(3) == a // 2, 0.8 * (a % 2), 0.4))
             for a, g in enumerate(random_primitives(6, seed=39))]
    repeated = random_primitives(40, scale_range=(0.05, 0.1), seed=37)
    # equal blocks at far-apart indices, with other primitives in between
    repeated[30], repeated[39] = repeated[0], repeated[7]
    # one block that spans the grid, among small ones
    whole = random_primitives(30, scale_range=(0.02, 0.05), seed=43)
    whole[12] = dataclasses.replace(whole[12], scale=np.full(3, 0.5))
    return {
        "empty": [],
        "single": random_primitives(1, seed=31),
        "clipped_at_faces": random_primitives(60, lo=-0.3, hi=1.1, seed=32),
        "dense_overlap": random_primitives(80, scale_range=(0.1, 0.3), seed=33),
        "outside_grid": far + random_primitives(20, seed=34),
        "repeated_shapes": repeated,
        "all_outside": far,
        "every_face": faces + random_primitives(10, lo=0.2, hi=0.6, seed=40),
        "half_voxel_origin": random_primitives(40, seed=41),
        "odd_dims": random_primitives(40, lo=-0.1, hi=1.0, seed=42),
        "offset_origin": random_primitives(40, lo=-0.1, hi=1.7, scale_range=(0.02, 0.06),
                                           seed=45),
        "whole_grid_block": whole,
    }


class TestBatchedMatchesLoop:
    """The batched walk gives the loop's fields bit for bit."""

    @pytest.mark.parametrize("budget", [1, 700, splat_mod._CHUNK_PAIRS],
                             ids=["chunk_per_primitive", "small_chunks", "default"])
    @pytest.mark.parametrize("truncation", [3.0, np.inf])
    @pytest.mark.parametrize("name", sorted(reference_batches()))
    def test_fields_bit_identical(self, monkeypatch, name, truncation, budget):
        monkeypatch.setattr(splat_mod, "_CHUNK_PAIRS", budget)
        truncate_at(monkeypatch, truncation)
        grid = reference_grid(name)
        b = batch(reference_batches()[name])
        f = splat_fields(grid, b)
        alpha, sem, undefined = loop_splat_fields(grid, b, truncation)
        assert np.array_equal(oracle.alpha(f), alpha)
        assert np.array_equal(oracle.semantics(f), sem)
        assert np.array_equal(oracle.undefined(f), undefined)

    def test_batches_reach_the_cases_they_name(self):
        spans = {name: block_spans(reference_grid(name), batch(prims))
                 for name, prims in reference_batches().items() if prims}
        lo, hi = spans["clipped_at_faces"]
        assert (lo == 0).any() and (hi == 7).any()
        lo, hi = spans["outside_grid"]
        assert np.any(lo > hi, axis=1).sum() >= 10 and np.all(lo <= hi, axis=1).any()
        pairs = np.prod(np.maximum(hi - lo + 1, 0), axis=1).sum()
        assert pairs > 700  # several chunks at the small budget
        lo, hi = spans["all_outside"]
        assert np.any(lo > hi, axis=1).all()
        lo, hi = spans["every_face"]
        assert (lo == 0).any(axis=0).all() and (hi == 7).any(axis=0).all()
        lo, hi = spans["single"]
        assert np.all(lo <= hi) and np.prod(hi - lo + 1) < 8**3
        lo, hi = spans["half_voxel_origin"]
        for a in range(3):  # a block ends on the voxel where another starts
            assert np.intersect1d(lo[:, a], hi[:, a]).size
        lo, hi = spans["odd_dims"]
        assert (hi == np.array([6, 8, 4])).any(axis=0).all()
        lo, hi = spans["offset_origin"]  # blocks start 3, 2 and 1 voxels past the lattice
        assert [np.unique(lo[lo[:, a] > 0, a] % 4).tolist() for a in range(3)] == [[3], [2], [1]]
        assert (lo == 0).any(axis=0).all() and (hi == 15).any(axis=0).all()
        lo, hi = spans["whole_grid_block"]
        whole = np.all(lo == 0, axis=1) & np.all(hi == 7, axis=1)
        assert whole.sum() == 1 and (np.prod(hi - lo + 1, axis=1) <= 8**3 // 4).sum() > 20

    @pytest.mark.parametrize("budget", [1, 3, 10, 100])
    def test_chunks_respect_the_budget(self, budget):
        pairs = np.array([4, 1, 9, 150, 2, 2, 7, 64, 1])
        runs = list(splat_mod._chunks(pairs, budget))
        assert runs[0][0] == 0 and runs[-1][1] == len(pairs)
        for (a, b), (c, _) in zip(runs, runs[1:]):
            assert b == c
        for a, b in runs:
            assert b > a
            assert b - a == 1 or pairs[a:b].sum() <= budget

    def test_chunk_memory_is_bounded(self, monkeypatch):
        # A flat list of this batch's (primitive, voxel) pairs with one
        # float per channel would take 40 * 40^3 * 12 * 8 B = 234 MiB.
        grid = make_grid(dims=(40, 40, 40), voxel_size=0.02)
        b = batch(random_primitives(40, seed=38))
        pairs = len(b) * 40**3
        assert pairs * C * 8 > 200 * 2**20
        truncate_at(monkeypatch, np.inf)
        tracemalloc.start()
        try:
            f = splat_fields(grid, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = sum(full(f).nbytes for full in
                      (oracle.alpha, oracle.semantics, oracle.undefined))
        assert peak - outputs < 32 * 2**20

    # aligned to the cells, offset from them (as a CLI render's default
    # origin is), and with voxel centres on cell faces; then 4x the batch
    @pytest.mark.parametrize("origin,n", [(0.0, 12000), (0.1, 12000), (0.04, 12000),
                                          (0.0, 48000)],
                             ids=["aligned", "offset", "half_voxel", "aligned_4x"])
    def test_render_memory_is_bounded(self, origin, n):
        # 12,000 primitives over the benchmark's 60 x 60 x 36 grid, about
        # as many as the final render of the concat baseline, or 4x as many
        rng = np.random.default_rng(44)
        grid = make_grid(dims=(60, 60, 36), voxel_size=0.08, origin=(origin,) * 3)
        q = rng.normal(size=(n, 4))
        b = PrimitiveBatch(
            rng.uniform(0.0, 1.0, (n, 3)) * np.array([4.8, 4.8, 2.88]),
            rng.uniform(0.02, 0.15, (n, 3)), q / np.linalg.norm(q, axis=1, keepdims=True),
            rng.uniform(0.1, 1.0, n), rng.normal(size=(n, C - 1)), np.zeros((n, 0)))
        tracemalloc.start()
        try:
            out = render(grid, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beyond its 5.9 MiB output, a render holds 236 B per primitive of
        # setup that every slab reads, and one slab's working set. Each
        # x-layer here is a slab of its own, with 135 tiles and 14,000 pairs
        # at 12,000 primitives or 55,000 at 48,000; the peaks were 11.3,
        # 12.4 and 11.5 MiB, and 22.4 MiB at 4x, each at least 1.2 MiB
        # under this bound.
        assert peak < out.values.nbytes + n * 256 + 6 * 2**20


class TestBoxMatchesFullGrid:
    """Accumulating and finalising only the tiles the blocks cover gives
    the full-grid fields and float64 channels bit for bit, and the render
    stores those channels rounded to float32."""

    @pytest.mark.parametrize("truncation", [3.0, np.inf])
    @pytest.mark.parametrize("name", sorted(reference_batches()))
    def test_fields_and_render_bit_identical(self, monkeypatch, name, truncation):
        truncate_at(monkeypatch, truncation)
        grid = reference_grid(name)
        b = batch(reference_batches()[name])
        f = splat_fields(grid, b)
        alpha, sem, undefined = full_grid_splat_fields(grid, b, truncation)
        assert np.array_equal(oracle.alpha(f), alpha)
        assert np.array_equal(oracle.semantics(f), sem)
        assert np.array_equal(oracle.undefined(f), undefined)
        channels = oracle.channels(f)
        assert np.array_equal(channels, full_grid_render(grid, b, truncation))
        assert_stored(render(grid, b), channels)

    @pytest.mark.parametrize("truncation", [3.0, np.inf])
    @pytest.mark.parametrize("name", sorted(reference_batches()))
    def test_a_slab_per_layer_changes_nothing(self, monkeypatch, name, truncation):
        # each x-layer of tiles its own slab, as in a scene too dense for
        # one slab to hold two layers
        monkeypatch.setattr(splat_mod, "_SLAB_PAIRS", 1)
        truncate_at(monkeypatch, truncation)
        grid = reference_grid(name)
        b = batch(reference_batches()[name])
        assert all(len(np.unique(f.idx[0][0])) <= 1 for f in splat_mod.splat_slabs(grid, b))
        f = splat_fields(grid, b)
        alpha, sem, undefined = loop_splat_fields(grid, b, truncation)
        assert np.array_equal(oracle.alpha(f), alpha)
        assert np.array_equal(oracle.semantics(f), sem)
        assert np.array_equal(oracle.undefined(f), undefined)
        channels = full_grid_render(grid, b, truncation)
        assert_stored(render(grid, b), channels)
        assert np.array_equal(render(grid, b, labels=True).values,
                              np.argmax(channels.astype(np.float32), axis=-1))

    @pytest.mark.parametrize("name,box_shape", [
        ("empty", (0, 0, 0)), ("all_outside", (0, 0, 0)), ("every_face", (8, 8, 8)),
        ("offset_origin", (16, 16, 16))])
    def test_box_is_the_union_of_the_blocks(self, name, box_shape):
        # the tiles hold each voxel of the blocks once, and no other voxel,
        # also where the cells start off voxel 0's lattice; box_shape is the
        # shape of the blocks' bounding box
        grid = reference_grid(name)
        b = batch(reference_batches()[name])
        f = splat_fields(grid, b)
        union = np.zeros(grid.dims, dtype=bool)
        for lo, hi in zip(*block_spans(grid, b)) if len(b) else ():
            union[tuple(map(slice, lo, hi + 1))] = True
        voxels = splat_mod._flat_voxels(f.idx, f.dims)
        touched = np.sort(voxels[voxels >= 0])
        assert np.array_equal(touched, np.flatnonzero(union))
        ijk = np.argwhere(union)
        shape = tuple(np.ptp(ijk, axis=0) + 1) if len(ijk) else (0, 0, 0)
        assert shape == box_shape


class TestSplatOpacity:
    def test_unit_opacity_at_center(self):
        grid = make_grid()
        center = grid.origin + (np.array([3, 3, 3]) + 0.5) * grid.voxel_size
        g = GaussianPrimitive(center, (0.05, 0.05, 0.05), (1, 0, 0, 0), 1.0,
                              np.zeros(C - 1))
        alpha = oracle.alpha(splat_fields(grid, batch([g])))
        assert alpha[3, 3, 3] == pytest.approx(1.0)

    def test_empty_product_is_zero(self):
        grid = make_grid()
        alpha = oracle.alpha(splat_fields(grid, batch([])))
        assert np.all(alpha == 0.0)

    def test_two_half_opacity_primitives(self):
        grid = make_grid()
        center = grid.origin + (np.array([4, 4, 4]) + 0.5) * grid.voxel_size
        g = GaussianPrimitive(center, (0.05, 0.05, 0.05), (1, 0, 0, 0), 0.5,
                              np.zeros(C - 1))
        alpha = oracle.alpha(splat_fields(grid, batch([g, g])))
        assert alpha[4, 4, 4] == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_primitives(self):
        grid = make_grid()
        prims = random_primitives(12, seed=9)
        a1 = oracle.alpha(splat_fields(grid, batch(prims[:6])))
        a2 = oracle.alpha(splat_fields(grid, batch(prims)))
        assert np.all(a2 >= a1 - 1e-12)


class TestWidePrimitives:
    """A primitive wider than the grid covers every voxel, however wide; at
    a scale of 1e20 its block's bounds in voxels lie past int64."""

    @pytest.mark.parametrize("scale", [1e20, float(np.finfo(np.float32).max)],
                             ids=["1e20", "float32_max"])
    @pytest.mark.parametrize("origin", [(0.0, 0.0, 0.0), (-0.37, 0.11, 0.04)],
                             ids=["aligned", "offset"])
    def test_alpha_is_the_opacity_everywhere(self, scale, origin):
        grid = make_grid(dims=(6, 5, 4), origin=origin)
        g = GaussianPrimitive((0.2, 0.3, 0.1), (scale, scale / 2, scale), RNG.normal(size=4),
                              0.9, RNG.normal(size=C - 1))
        f = splat_fields(grid, batch([g]))
        assert np.all(oracle.alpha(f) == 0.9)
        channels = oracle.channels(f)
        assert np.all(1.0 - channels[..., -1] == 0.9)
        assert np.allclose(channels[..., :-1], 0.9 * softmax(g.logits), rtol=0, atol=1e-12)
        assert_stored(render(grid, batch([g])), channels)

    def test_render_at_a_far_origin(self):
        # 5.3e8 m is about as far out as 0.1 m voxels keep 2^CENTRE_BITS
        # float64 steps (to 2^29 m); grid.check_geometry refuses a grid past it
        o = 5.3e8 + 0.37
        grid = make_grid(dims=(5, 4, 3), origin=(o, 0.0, 0.0))
        prims = [dataclasses.replace(g, mean=g.mean + [o, 0.0, 0.0], scale=np.full(3, 200.0))
                 for g in random_primitives(3, lo=0.0, hi=0.4, seed=46)]
        channels = oracle.channels(splat_fields(grid, batch(prims)))
        assert np.all(channels[..., -1] < 1.0)
        assert np.array_equal(channels, full_grid_render(grid, batch(prims)))
        out = render(grid, batch(prims))
        assert np.all(out.values[..., -1] < 1.0)
        assert_stored(out, channels)


def test_render_checks_its_grid_before_it_splats(monkeypatch):
    # the output has the primitives' 12 classes, past the bound here, not
    # the given grid's 2
    monkeypatch.setattr(grid_mod, "MAX_GRID_CELLS", 100)
    grid = VoxelGrid.empty_labels((0, 0, 0), 0.1, (5, 5, 2), 2)
    monkeypatch.setattr(splat_mod, "splat_slabs", lambda *args: pytest.fail("splatted"))
    with pytest.raises(InvalidInputError, match="exceed"):
        render(grid, batch(random_primitives(1, seed=5)))


def tied_pair(mean, scale=0.15):
    """Two coincident primitives whose logits for classes 0 and 1 are
    swapped; numpy sums the first eight exponentials pairwise, so both
    softmax sums agree and the two classes tie exactly wherever they lead."""
    logits = np.zeros(C - 1)
    logits[:2] = 6.0, 4.0
    g = GaussianPrimitive(mean, (scale, scale * 0.8, scale * 1.2), (0.9, 0.1, -0.3, 0.2),
                          0.95, logits)
    return [g, dataclasses.replace(g, logits=logits[[1, 0] + list(range(2, C - 1))])]


@st.composite
def label_cases(draw):
    """A grid of 1-10 voxels a side at an origin off the cells' lattice, so
    tiles stick out past its edges, and up to 12 primitives whose means lie
    up to half the grid's extent off it; some batches add a primitive wider
    than the grid or a tied pair."""
    dims = tuple(draw(st.integers(1, 10)) for _ in range(3))
    vs = draw(st.sampled_from([0.1, 0.125, 0.07]))
    origin = np.array([draw(st.floats(-0.5, 0.5)) for _ in range(3)])
    extent = np.asarray(dims) * vs
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    prims = [dataclasses.replace(g, mean=origin + rng.uniform(-0.5, 1.5, 3) * extent)
             for g in random_primitives(draw(st.integers(0, 12)), seed=rng)]
    if draw(st.booleans()):
        prims += random_primitives(1, scale_range=(2.0, 3.0), seed=rng)
    if draw(st.booleans()):
        prims += tied_pair(origin + rng.uniform(0.2, 0.8, 3) * extent)
    return make_grid(dims, vs, origin), batch(prims)


def tie_case(nudge=0.0):
    """The tied pair on a grid off the cells' lattice; a `nudge` added to
    the second primitive's logit for class 1 makes class 1 lead class 0
    where the two lead (by a relative 2.2e-10 at NEAR_TIE)."""
    grid = make_grid((6, 5, 7), 0.1, (0.03, -0.11, 0.2))
    g, h = tied_pair(grid.origin + [0.3, 0.25, 0.35])
    h = dataclasses.replace(h, logits=h.logits + np.eye(C - 1)[1] * nudge)
    return grid, batch([g, h])


# class 1 leads class 0 in float64, by far less than a float32 step
NEAR_TIE = 1e-9


class TestLabels:
    """render(..., labels=True) is the argmax of the probability render,
    byte for byte, without the C-channel grid. A label is the first maximum
    of the stored float32 channels, not of the float64 channels they round:
    where two classes differ in float64 but round to one float32 value, the
    lower class wins, as in the argmax of a reloaded `.vgrid`."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(label_cases())
    @example((make_grid(), batch([])))
    @example((reference_grid("all_outside"), batch(reference_batches()["all_outside"])))
    @example((reference_grid("offset_origin"), batch(reference_batches()["offset_origin"])))
    @example((reference_grid("whole_grid_block"), batch(reference_batches()["whole_grid_block"])))
    @example(tie_case())
    @example(tie_case(NEAR_TIE))
    def test_labels_are_the_argmax_of_the_render(self, case):
        grid, b = case
        got = render(grid, b, labels=True)
        want = argmax_labels(render(grid, b))
        assert (got.mode, got.num_classes, got.dims) == (LABEL_MODE, C, grid.dims)
        assert np.array_equal(got.origin, grid.origin) and got.voxel_size == grid.voxel_size
        assert got.values.tobytes() == want.values.tobytes()
        stored = full_grid_render(grid, b).astype(np.float32)
        assert np.array_equal(got.values, np.argmax(stored, axis=-1))

    def test_the_tied_pair_ties(self):
        grid, b = tie_case()
        probs = full_grid_render(grid, b)
        tied = (probs[..., 0] == probs[..., 1]) & (probs[..., 0] == probs.max(axis=-1))
        assert tied.sum() > 10
        assert np.all(render(grid, b, labels=True).values[tied] == 0)

    def test_a_near_tie_goes_to_the_lower_class_as_in_the_file(self, tmp_path):
        grid, b = tie_case(NEAR_TIE)
        channels = oracle.channels(splat_fields(grid, b))
        stored = channels.astype(np.float32)
        near = ((channels[..., 1] > channels[..., 0]) & (stored[..., 1] == stored[..., 0])
                & (stored[..., 0] == stored.max(axis=-1)))
        assert near.sum() > 10
        save_vgrid(tmp_path / "pred.vgrid", render(grid, b))
        want = argmax_labels(load_vgrid(tmp_path / "pred.vgrid"))
        got = render(grid, b, labels=True)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.all(got.values[near] == 0)

    def test_a_local_frame_never_builds_the_probability_grid(self):
        # the first frame of the default local run, on the 60 x 60 x 36 grid
        gt = generate_scene(DEFAULT_SCENE)
        maps = scene_maps(gt)
        frame = generate_trajectory(maps, 1, 0)[0]
        b = stub_predict(maps, frame, NoiseParams(), 0, StubConfig())
        prob_grid = np.prod(gt.dims) * gt.num_classes * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            labels = render(gt, b, labels=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(b) > 500 and labels.values.dtype == np.uint16
        assert peak < prob_grid


class TestSplatSemantics:
    def test_single_primitive_softmax_everywhere(self):
        grid = make_grid()
        g = random_primitives(1, seed=2)[0]
        f = splat_fields(grid, batch([g]))
        field, undef = oracle.semantics(f), oracle.undefined(f)
        expect = softmax(g.logits)
        defined = ~undef
        assert np.allclose(field[defined], expect, atol=1e-9)

    def test_equal_density_pair_averages(self):
        grid = make_grid(dims=(4, 4, 4))
        x = grid.origin + (np.array([2, 2, 2]) + 0.5) * grid.voxel_size
        off = np.array([0.07, 0.0, 0.0])
        la, lb = RNG.normal(size=C - 1), RNG.normal(size=C - 1)
        a = GaussianPrimitive(x - off, (0.05,) * 3, (1, 0, 0, 0), 1.0, la)
        b = GaussianPrimitive(x + off, (0.05,) * 3, (1, 0, 0, 0), 1.0, lb)
        field = oracle.semantics(splat_fields(grid, batch([a, b])))
        expect = 0.5 * (softmax(la) + softmax(lb))
        assert np.allclose(field[2, 2, 2], expect, atol=1e-9)

    def test_rows_sum_to_one(self):
        grid = make_grid()
        field = oracle.semantics(splat_fields(grid, batch(random_primitives(20, seed=13))))
        assert np.allclose(field.sum(axis=-1), 1.0, atol=1e-6)

    def test_zero_density_voxels_uniform_and_flagged(self):
        grid = make_grid(dims=(10, 10, 10))
        g = GaussianPrimitive((0.05, 0.05, 0.05), (0.01,) * 3, (1, 0, 0, 0), 1.0,
                              RNG.normal(size=C - 1))
        f = splat_fields(grid, batch([g]))
        field, undef = oracle.semantics(f), oracle.undefined(f)
        assert undef.any()
        assert np.allclose(field[undef], 1.0 / (C - 1))


class TestRenderOracle:
    def test_dense_oracle_match_with_truncation_disabled(self, monkeypatch):
        truncate_at(monkeypatch, np.inf)
        grid = make_grid(dims=(6, 6, 6), voxel_size=0.12)
        prims = random_primitives(20, seed=21)
        channels = oracle.channels(splat_fields(grid, batch(prims)))
        dense = dense_render_oracle(grid, prims)
        assert np.max(np.abs(channels - dense)) <= 1e-9
        assert_stored(render(grid, batch(prims)), channels)

    def test_truncated_within_tolerance_of_dense(self):
        grid = make_grid(dims=(8, 8, 8), voxel_size=0.1)
        prims = random_primitives(30, seed=22)
        out = render(grid, batch(prims))
        oracle = dense_render_oracle(grid, prims)
        assert np.max(np.abs(out.values - oracle)) <= 1e-2

    def test_splat_block_covers_support(self):
        # every voxel center within 3 sigma of a primitive gets its density
        grid = make_grid(dims=(10, 10, 10), voxel_size=0.1)
        centers = oracle.centers(grid)
        for g in random_primitives(40, lo=-0.2, hi=1.2, seed=3):
            d = centers - g.mean
            m2 = np.einsum("...i,ij,...j->...", d, g.inv_covariance(), d)
            f = splat_fields(grid, batch([g]))
            assert not oracle.undefined(f)[m2 <= 3.0**2].any()

    def test_empty_scene(self):
        grid = make_grid(dims=(3, 3, 3))
        out = render(grid, batch([]))
        assert np.allclose(out.values[..., -1], 1.0)
        assert np.allclose(out.values[..., :-1], 0.0)

    def test_a_saved_render_reloads_as_rendered(self, tmp_path):
        grid = reference_grid("offset_origin")
        out = render(grid, batch(reference_batches()["offset_origin"]))
        save_vgrid(tmp_path / "pred.vgrid", out)
        back = load_vgrid(tmp_path / "pred.vgrid")
        assert back.values.dtype == out.values.dtype
        assert back.values.tobytes() == out.values.tobytes()

    def test_channel_sums_one(self):
        grid = make_grid()
        out = render(grid, batch(random_primitives(40, seed=23)))
        out.check_normalized(1e-6)

    def test_permutation_invariance(self):
        grid = make_grid(dims=(6, 6, 6))
        prims = random_primitives(15, seed=24)
        a = render(grid, batch(prims))
        b = render(grid, batch(list(reversed(prims))))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12


class TestArgmaxLabels:
    def make_prob_grid(self, channels):
        vals = np.array(channels, dtype=float).reshape(1, 1, len(channels), C)
        return VoxelGrid((0, 0, 0), 0.1, (1, 1, len(channels)), vals, PROB_MODE, C)

    def test_empty_voxel(self):
        row = np.zeros(C)
        row[-1] = 1.0
        g = self.make_prob_grid([row])
        labels = argmax_labels(g)
        assert labels.values[0, 0, 0] == C - 1

    def test_occupied_class(self):
        row = np.zeros(C)
        row[0], row[1], row[-1] = 0.6, 0.1, 0.3
        g = self.make_prob_grid([row])
        assert argmax_labels(g).values[0, 0, 0] == 0

    def test_tie_breaks_to_lower_class(self):
        row = np.zeros(C)
        row[2], row[5] = 0.5, 0.5
        g = self.make_prob_grid([row])
        assert argmax_labels(g).values[0, 0, 0] == 2

    def test_occupied_beats_empty_on_tie(self):
        row = np.zeros(C)
        row[3], row[-1] = 0.5, 0.5
        g = self.make_prob_grid([row])
        assert argmax_labels(g).values[0, 0, 0] == 3

    def test_rejects_label_grid(self):
        g = VoxelGrid.empty_labels((0, 0, 0), 0.1, (2, 2, 2), C)
        with pytest.raises(InvalidInputError):
            argmax_labels(g)
