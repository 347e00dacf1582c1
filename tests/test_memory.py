import numpy as np
import pytest

import splatmem.memory as memory_mod
from splatmem.attn import PrimitiveBatch, concat_batches, init_weights
from splatmem.cavf import FusionConfig
from splatmem.core import CameraFrame
from splatmem.errors import FormatError, InvalidInputError
from splatmem.memory import (
    _fuse_at_origin,
    _merge_collisions,
    init_memory,
    load_gmem,
    query_fov,
    save_gmem,
    update,
)

RNG = np.random.default_rng(31)
C = 12
D = 32
FIELDS = ("means", "scales", "rotations", "opacities", "logits", "features",
          "confidences")


def make_batch(n, lo=0.0, hi=1.0, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    logits = rng.normal(size=(n, C - 1)) * 2
    opac = rng.uniform(0.2, 1.0, n)
    from splatmem.conf import confidence_values

    return PrimitiveBatch(
        means=rng.uniform(lo, hi, size=(n, 3)),
        scales=rng.uniform(0.02, 0.08, size=(n, 3)),
        rotations=quats,
        opacities=opac,
        logits=logits,
        features=rng.normal(size=(n, D)),
        confidences=confidence_values(logits, opac),
    )


def make_frame(position=(0.0, 0.0, 0.0), look=(0.0, 0.0, 1.0)):
    from splatmem.synth import _look_at_pose

    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
    return CameraFrame(K, _look_at_pose(np.asarray(position, dtype=float),
                                        np.asarray(look, dtype=float)),
                       640, 480, 0.1, 10.0)


class TestInitMemory:
    def test_single_primitive(self):
        mem = init_memory(make_batch(1, seed=1))
        assert len(mem) == 1
        assert mem.frame_counter == 0

    def test_two_in_one_cell_fuse(self):
        b = make_batch(2, seed=2)
        b.means[0] = [0.01, 0.01, 0.01]
        b.means[1] = [0.02, 0.02, 0.02]
        mem = init_memory(b, FusionConfig(voxel_size=0.12))
        assert len(mem) == 1

    def test_count_matches_distinct_cells_oracle(self):
        b = make_batch(500, lo=0.0, hi=2.0, seed=3)
        cfg = FusionConfig(voxel_size=0.12)
        mem = init_memory(b, cfg)
        cells = {tuple(c) for c in np.floor(b.means / 0.12).astype(int)}
        assert len(mem) == len(cells)
        mem.check_unique_cells()

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            init_memory(PrimitiveBatch.empty(D))


class TestQueryFov:
    def test_point_on_axis_inside(self):
        mem = init_memory(make_batch(1, seed=4))
        mem.batch.means[0] = [0.0, 0.0, 1.0]
        mem.cells[0] = [0, 0, 8]
        inside, outside = query_fov(mem, make_frame())
        assert len(inside) == 1 and len(outside) == 0

    def test_point_behind_camera_outside(self):
        mem = init_memory(make_batch(1, seed=5))
        mem.batch.means[0] = [0.0, 0.0, -1.0]
        inside, outside = query_fov(mem, make_frame())
        assert len(inside) == 0 and len(outside) == 1

    def test_partition_matches_projection_oracle(self):
        b = make_batch(1000, lo=-3.0, hi=3.0, seed=6)
        mem = init_memory(b, FusionConfig(voxel_size=0.05))
        frame = make_frame(position=(0.3, -0.2, -2.0), look=(0.1, 0.05, 1.0))
        inside, outside_ids = query_fov(mem, frame)

        # independent oracle: explicit homogeneous transform + pinhole
        world2cam = np.linalg.inv(frame.pose)
        K = frame.intrinsics
        expect_inside = []
        for i, m in enumerate(mem.batch.means):
            pc = world2cam @ np.array([*m, 1.0])
            z = pc[2]
            if z < frame.near or z > frame.far:
                continue
            u = K[0, 0] * pc[0] / z + K[0, 2]
            v = K[1, 1] * pc[1] / z + K[1, 2]
            if 0 <= u < frame.width and 0 <= v < frame.height:
                expect_inside.append(i)
        got_inside = sorted(set(range(len(mem))) - set(outside_ids.tolist()))
        assert got_inside == expect_inside
        assert len(inside) == len(expect_inside)

    def test_extent_option_is_superset(self):
        b = make_batch(300, lo=-2.0, hi=2.0, seed=7)
        mem = init_memory(b, FusionConfig(voxel_size=0.05))
        frame = make_frame()
        in1, _ = query_fov(mem, frame)
        in2, _ = query_fov(mem, frame, extent_sigmas=3.0)
        assert len(in2) >= len(in1)


class TestUpdate:
    def test_duplicate_locals_with_zero_refinement_stable(self):
        w = init_weights(d_model=D, seed=1).with_zero_refinement()
        frame = make_frame(position=(0.5, 0.5, -2.0))
        b = make_batch(40, lo=0.0, hi=1.0, seed=8)
        mem = init_memory(b, FusionConfig(voxel_size=0.12))
        inside, _ = query_fov(mem, frame)
        assert len(inside) > 0
        before_count = len(mem)
        before_means = mem.batch.means.copy()
        update(mem, inside.copy(), frame, w)
        assert len(mem) == before_count
        # attributes survive fusing exact duplicates
        got = mem.batch.means[np.lexsort(mem.batch.means.T)]
        expect = before_means[np.lexsort(before_means.T)]
        assert np.allclose(got, expect, atol=1e-9)
        mem.check_unique_cells()

    def test_disjoint_fov_appends(self):
        w = init_weights(d_model=D, seed=2).with_zero_refinement()
        mem = init_memory(make_batch(20, lo=0.0, hi=1.0, seed=9),
                          FusionConfig(voxel_size=0.12))
        n0 = len(mem)
        # camera looking away from all memory content
        frame = make_frame(position=(0.5, 0.5, 5.0), look=(0.0, 0.0, 1.0))
        locals_ = make_batch(10, seed=10)
        locals_.means[:] = RNG.uniform(0, 1, (10, 3)) + np.array([0.0, 0.0, 7.0])
        update(mem, locals_, frame, w)
        assert len(mem) >= n0
        assert mem.frame_counter == 1
        mem.check_unique_cells()

    def test_outside_primitives_bit_identical(self):
        w = init_weights(d_model=D, seed=3)
        mem = init_memory(make_batch(60, lo=-1.0, hi=1.0, seed=11),
                          FusionConfig(voxel_size=0.12))
        frame = make_frame(position=(0.0, 0.0, -1.5))
        _, outside_ids = query_fov(mem, frame)
        before = {tuple(mem.cells[i]): mem.batch.means[i].copy() for i in outside_ids}
        locals_ = make_batch(15, seed=12)
        update(mem, locals_, frame, w)
        after = {tuple(c): m for c, m in zip(mem.cells, mem.batch.means)}
        moved = 0
        for cell, mean in before.items():
            if cell in after and np.array_equal(after[cell], mean):
                continue
            moved += 1
        # collisions are possible but must be rare; bystanders stay put
        assert moved <= 2

    def test_empty_local_prediction_only_counts(self):
        w = init_weights(d_model=D, seed=4)
        mem = init_memory(make_batch(10, seed=13))
        means_before = mem.batch.means.copy()
        update(mem, PrimitiveBatch.empty(D), make_frame(), w)
        assert mem.frame_counter == 1
        assert np.array_equal(mem.batch.means, means_before)
        assert len(mem.stats) == 2

    def test_repeated_same_frame_does_not_grow(self):
        w = init_weights(d_model=D, seed=5).with_zero_refinement()
        frame = make_frame(position=(0.5, 0.5, -2.0))
        b = make_batch(30, seed=14)
        mem = init_memory(b, FusionConfig(voxel_size=0.12))
        update(mem, b.copy(), frame, w)
        n1 = len(mem)
        update(mem, b.copy(), frame, w)
        assert len(mem) == n1
        mem.check_unique_cells()

    def test_stats_recorded(self):
        w = init_weights(d_model=D, seed=6)
        mem = init_memory(make_batch(10, seed=15))
        update(mem, make_batch(5, seed=16), make_frame(position=(0.5, 0.5, -2.0)), w)
        assert len(mem.stats) == 2
        s = mem.stats[-1]
        assert s.count == len(mem)
        # 52-byte header, then mean 3, scale 3, quat 4, opacity 1, logits
        # C-1 and feature D floats per primitive
        assert s.bytes_estimate == 52 + len(mem) * (11 + (C - 1) + D) * 4


    def test_without_weights_skips_the_encoder(self, monkeypatch):
        frame = make_frame(position=(0.5, 0.5, -2.0))
        b, locals_ = make_batch(40, seed=21), make_batch(20, seed=22)
        # an encoder that returns its inputs unchanged ...
        monkeypatch.setattr(memory_mod, "dte_step", lambda cur, hist, *a: (cur, hist))
        expect = update(init_memory(b, FusionConfig(voxel_size=0.12)), locals_,
                        frame, init_weights(d_model=D))

        def no_dte(*args):
            raise AssertionError("dte_step called")

        # ... gives the memory that weights None gives without calling it
        monkeypatch.setattr(memory_mod, "dte_step", no_dte)
        got = update(init_memory(b, FusionConfig(voxel_size=0.12)), locals_,
                     frame, None)
        for name in FIELDS:
            assert np.array_equal(getattr(got.batch, name), getattr(expect.batch, name))
        assert np.array_equal(got.cells, expect.cells)
        got.check_unique_cells()


def merge_collisions_reference(kept, kept_cells, new, new_cells, cfg, conf_cfg):
    """The per-pair collision merge that _merge_collisions replaced."""
    kept = kept.copy()
    kept_lookup = {tuple(c): i for i, c in enumerate(kept_cells)}
    collide_new = []
    for j, c in enumerate(new_cells):
        i = kept_lookup.get(tuple(c))
        if i is not None:
            pair = concat_batches(kept.select([i]), new.select([j]))
            merged, _ = _fuse_at_origin(pair, np.zeros(3), cfg, conf_cfg)
            for name in FIELDS:
                getattr(kept, name)[i] = getattr(merged, name)[0]
            collide_new.append(j)
    keep = np.setdiff1d(np.arange(len(new)), collide_new)
    return kept, new.select(keep), new_cells[keep]


def one_per_cell(n, cells, seed):
    """A batch with one row inside each given cell of size 0.12."""
    rng = np.random.default_rng(seed)
    b = make_batch(n, seed=seed)
    b.means[:] = (cells + rng.uniform(0.05, 0.95, (n, 3))) * 0.12
    return b


class TestMergeCollisions:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_pair_reference(self, seed):
        rng = np.random.default_rng(seed)
        pool = np.stack(np.meshgrid(*[np.arange(-6, 6)] * 3), -1).reshape(-1, 3)
        pool = pool[rng.permutation(len(pool))]
        kept_cells, new_cells = pool[:400], np.concatenate([pool[200:300], pool[400:500]])
        new_cells = new_cells[rng.permutation(len(new_cells))]
        kept = one_per_cell(400, kept_cells, seed)
        new = one_per_cell(200, new_cells, seed + 100)
        # sign-flipped partners and near-zero quaternions (the fallback)
        j, i = np.nonzero((new_cells[:, None] == kept_cells[None]).all(2))
        new.rotations[j[:50]] = -kept.rotations[i[:50]]
        new.rotations[j[-5:]] *= 1e-9
        kept.rotations[i[-5:]] *= 1e-9
        cfg = FusionConfig(voxel_size=0.12)
        got = _merge_collisions(kept.copy(), kept_cells, new, new_cells, cfg, None)
        ref = merge_collisions_reference(kept, kept_cells, new, new_cells, cfg, None)
        for g, r in zip(got[:2], ref[:2]):
            for name in FIELDS:
                assert np.array_equal(getattr(g, name), getattr(r, name)), name
        assert np.array_equal(got[2], ref[2])
        assert len(got[1]) == 100

    def test_all_pairs_in_one_fuse_call(self, monkeypatch):
        calls = []
        real = memory_mod.fuse
        monkeypatch.setattr(memory_mod, "fuse",
                            lambda *a: calls.append(1) or real(*a))
        pool = np.stack(np.meshgrid(*[np.arange(4)] * 3), -1).reshape(-1, 3)
        kept = one_per_cell(40, pool[:40], 1)
        new = one_per_cell(20, pool[30:50], 2)
        _merge_collisions(kept, pool[:40], new, pool[30:50], FusionConfig(), None)
        assert len(calls) == 1


class TestGmemRoundtrip:
    def test_lossless_file_roundtrip(self, tmp_path):
        mem = init_memory(make_batch(25, seed=17), FusionConfig(voxel_size=0.12))
        p1 = tmp_path / "a.gmem"
        p2 = tmp_path / "b.gmem"
        save_gmem(p1, mem)
        loaded = load_gmem(p1)
        save_gmem(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_fields_match_quantized(self, tmp_path):
        mem = init_memory(make_batch(12, seed=18))
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        loaded = load_gmem(path)
        assert len(loaded) == len(mem)
        assert np.allclose(loaded.batch.means, mem.batch.means, atol=1e-6)
        assert np.allclose(loaded.batch.logits, mem.batch.logits, atol=1e-5)
        assert loaded.fusion.voxel_size == mem.fusion.voxel_size

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=19)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmem(path)

    def test_bytes_estimate_is_file_size(self, tmp_path):
        mem = init_memory(make_batch(25, seed=23))
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        assert mem.bytes_estimate() == path.stat().st_size

    @pytest.mark.parametrize("field,value", [
        ("n_classes", 0), ("n_classes", 1), ("d_model", 0),
        ("voxel_size", 0.0), ("voxel_size", -0.1), ("voxel_size", float("nan")),
        ("voxel_size", float("inf")), ("origin", float("nan")),
        ("origin", float("-inf")),
    ])
    def test_bad_header_values(self, tmp_path, field, value):
        import struct

        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=24)))
        raw = bytearray(path.read_bytes())
        offsets = {"d_model": (12, "<I"), "n_classes": (16, "<I"),
                   "voxel_size": (20, "<d"), "origin": (36, "<d")}
        off, fmt = offsets[field]
        struct.pack_into(fmt, raw, off, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmem(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_record_value(self, tmp_path, value):
        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=25)))
        raw = bytearray(path.read_bytes())
        raw[52:56] = np.float32(value).tobytes()  # first mean coordinate
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmem(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=20)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError):
            load_gmem(path)
