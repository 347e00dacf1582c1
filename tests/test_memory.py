import copy
import functools
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatmem.memory as memory_mod
from oracle import pack_cells
from splatmem.attn import init_weights
from splatmem.cavf import FusionConfig, fuse, fusion_weights
from splatmem.core import CameraFrame, PrimitiveBatch, cell_key, concat_batches
from splatmem.errors import FormatError, InvariantError
from splatmem.memory import (
    _GMEM_HEADER,
    GaussianMemory,
    _merge_collisions,
    gmem_nbytes,
    init_memory,
    load_gmem,
    query_fov,
    save_gmem,
    update,
)

RNG = np.random.default_rng(31)
C = 12
D = 32
FIELDS = ("means", "scales", "rotations", "opacities", "logits", "features")


def make_batch(n, lo=0.0, hi=1.0, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    logits = rng.normal(size=(n, C - 1)) * 2
    opac = rng.uniform(0.2, 1.0, n)
    return PrimitiveBatch(
        means=rng.uniform(lo, hi, size=(n, 3)),
        scales=rng.uniform(0.02, 0.08, size=(n, 3)),
        rotations=quats,
        opacities=opac,
        logits=logits,
        features=rng.normal(size=(n, D)),
    )


def make_frame(position=(0.0, 0.0, 0.0), look=(0.0, 0.0, 1.0)):
    from splatmem.synth import _look_at_pose

    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1]])
    return CameraFrame(K, _look_at_pose(np.asarray(position, dtype=float),
                                        np.asarray(look, dtype=float)),
                       640, 480, 0.1, 10.0)


class TestInitMemory:
    def test_single_primitive(self):
        mem = init_memory(make_batch(1, seed=1), FusionConfig())
        assert len(mem) == 1
        assert np.array_equal(mem.cells, cell_key(mem.batch.means, 0.12))

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

    def test_empty_prediction_gives_an_empty_memory(self):
        mem = init_memory(PrimitiveBatch.empty(C), FusionConfig())
        assert len(mem) == 0 and mem.cells.shape == (0,)
        assert (mem.batch.n_logits, mem.batch.d_model) == (C - 1, D)


class TestQueryFov:
    def test_point_on_axis_inside(self):
        mem = init_memory(make_batch(1, seed=4), FusionConfig())
        mem.batch.means[0] = [0.0, 0.0, 1.0]
        inside, outside = query_fov(mem, make_frame())
        assert len(inside) == 1 and len(outside) == 0

    def test_point_behind_camera_outside(self):
        mem = init_memory(make_batch(1, seed=5), FusionConfig())
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


class TestUpdate:
    def test_duplicate_locals_stable(self):
        w = init_weights(seed=1)
        frame = make_frame(position=(0.5, 0.5, -2.0))
        b = make_batch(40, lo=0.0, hi=1.0, seed=8)
        mem = init_memory(b, FusionConfig(voxel_size=0.12))
        inside, _ = query_fov(mem, frame)
        assert len(inside) > 0
        before_count = len(mem)
        before_means = mem.batch.means.copy()
        update(mem, copy.deepcopy(inside), frame, w)
        assert len(mem) == before_count
        # attributes survive fusing exact duplicates
        got = mem.batch.means[np.lexsort(mem.batch.means.T)]
        expect = before_means[np.lexsort(before_means.T)]
        assert np.allclose(got, expect, atol=1e-9)
        mem.check_unique_cells()

    def test_disjoint_fov_appends(self):
        w = init_weights(seed=2)
        mem = init_memory(make_batch(20, lo=0.0, hi=1.0, seed=9),
                          FusionConfig(voxel_size=0.12))
        n0 = len(mem)
        # camera looking away from all memory content
        frame = make_frame(position=(0.5, 0.5, 5.0), look=(0.0, 0.0, 1.0))
        locals_ = make_batch(10, seed=10)
        locals_.means[:] = RNG.uniform(0, 1, (10, 3)) + np.array([0.0, 0.0, 7.0])
        assert update(mem, locals_, frame, w) == 0
        assert len(mem) >= n0
        mem.check_unique_cells()

    def test_outside_primitives_bit_identical(self):
        w = init_weights(seed=3)
        mem = init_memory(make_batch(60, lo=-1.0, hi=1.0, seed=11),
                          FusionConfig(voxel_size=0.12))
        frame = make_frame(position=(0.0, 0.0, -1.5))
        _, outside_ids = query_fov(mem, frame)
        before = {mem.cells[i]: mem.batch.means[i].copy() for i in outside_ids}
        locals_ = make_batch(15, seed=12)
        update(mem, locals_, frame, w)
        after = dict(zip(mem.cells, mem.batch.means))
        moved = 0
        for cell, mean in before.items():
            if cell in after and np.array_equal(after[cell], mean):
                continue
            moved += 1
        # collisions are possible but must be rare; bystanders stay put
        assert moved <= 2

    def test_empty_local_prediction_only_counts(self):
        w = init_weights(seed=4)
        mem = init_memory(make_batch(10, seed=13), FusionConfig())
        means_before = mem.batch.means.copy()
        assert update(mem, PrimitiveBatch.empty(C), make_frame(), w) == 0
        assert np.array_equal(mem.batch.means, means_before)

    def test_repeated_same_frame_does_not_grow(self):
        w = init_weights(seed=5)
        frame = make_frame(position=(0.5, 0.5, -2.0))
        b = make_batch(30, seed=14)
        mem = init_memory(b, FusionConfig(voxel_size=0.12))
        update(mem, copy.deepcopy(b), frame, w)
        n1 = len(mem)
        update(mem, copy.deepcopy(b), frame, w)
        assert len(mem) == n1
        mem.check_unique_cells()

    def test_stats_recorded(self):
        # what a stats.csv row records: the in-view count that update
        # returns, and the checkpoint bytes of the updated memory
        w = init_weights(seed=6)
        mem = init_memory(make_batch(10, seed=15), FusionConfig())
        frame = make_frame(position=(0.5, 0.5, -2.0))
        in_view = len(query_fov(mem, frame)[0])
        assert in_view > 0
        assert update(mem, make_batch(5, seed=16), frame, w) == in_view
        # 52-byte header, then mean 3, scale 3, quat 4, opacity 1, logits
        # C-1 and feature D floats per primitive
        assert gmem_nbytes(mem.batch) == 52 + len(mem) * (11 + (C - 1) + D) * 4


def test_one_join_equals_a_join_per_frame():
    """The concatenation baseline joins its frames once; that batch, and the
    bytes its stats rows count, are those of joining every frame."""
    parts = [make_batch(n, seed=40 + n) for n in (0, 7, 1, 0, 12)]
    stepwise = PrimitiveBatch.empty(C)
    for p in parts:
        stepwise = concat_batches(stepwise, p)
    joined = concat_batches(PrimitiveBatch.empty(C), *parts)
    for f in FIELDS:
        assert getattr(joined, f).tobytes() == getattr(stepwise, f).tobytes()
        assert getattr(joined, f).shape == getattr(stepwise, f).shape
    assert gmem_nbytes(parts[0], len(joined)) == gmem_nbytes(joined)


def merge_collisions_reference(kept, kept_cells, new, new_cells, cfg):
    """The per-pair collision merge that _merge_collisions replaced, over
    (N, 3) cell triples."""
    kept = copy.deepcopy(kept)
    kept_lookup = {tuple(c): i for i, c in enumerate(kept_cells)}
    collide_new = []
    one_cell = np.zeros(2, dtype=np.int64)
    for j, c in enumerate(new_cells):
        i = kept_lookup.get(tuple(c))
        if i is not None:
            pair = concat_batches(kept.select([i]), new.select([j]))
            w = fusion_weights(pair.confidences, one_cell)
            merged = fuse(pair, w, one_cell).batch
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
        got = _merge_collisions(copy.deepcopy(kept), new, cfg.voxel_size)
        ref = merge_collisions_reference(kept, kept_cells, new, new_cells, cfg)
        for g, r in zip(got, ref[:2]):
            for name in FIELDS:
                assert np.array_equal(getattr(g, name), getattr(r, name)), name
        assert np.array_equal(cell_key(got[1].means, cfg.voxel_size), pack_cells(ref[2]))
        assert len(got[1]) == 100

    def test_all_pairs_in_one_fuse_call(self, monkeypatch):
        calls = []
        real = memory_mod.fuse
        monkeypatch.setattr(memory_mod, "fuse",
                            lambda *a: calls.append(1) or real(*a))
        pool = np.stack(np.meshgrid(*[np.arange(4)] * 3), -1).reshape(-1, 3)
        kept = one_per_cell(40, pool[:40], 1)
        new = one_per_cell(20, pool[30:50], 2)
        _merge_collisions(kept, new, 0.12)
        assert len(calls) == 1

    def test_repeated_kept_key_merges_into_its_first_row_only(self, tmp_path):
        """A checkpoint can hold two rows in one cell, when the memory it was
        saved from did. A new row in that cell merges into the first of
        them; no other row is merged or dropped."""
        pool = np.stack(np.meshgrid(*[np.arange(3)] * 3), -1).reshape(-1, 3)
        cfg = FusionConfig(voxel_size=0.12)
        mem = init_memory(one_per_cell(10, pool[:10], 3), cfg)
        mem.batch.means[4] = mem.batch.means[2]
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        loaded = load_gmem(path)
        assert loaded.cells[2] == loaded.cells[4] and len(np.unique(loaded.cells)) == 9
        new = one_per_cell(3, pool[20:23], 4)
        new.means[1] = loaded.batch.means[2]
        before, new_before = copy.deepcopy(loaded.batch), copy.deepcopy(new)

        kept, rest = _merge_collisions(loaded.batch, new, cfg.voxel_size)
        one_cell = np.zeros(2, dtype=np.int64)
        pair = concat_batches(before.select([2]), new_before.select([1]))
        merged = fuse(pair, fusion_weights(pair.confidences, one_cell), one_cell).batch
        others = [i for i in range(len(before)) if i != 2]
        for name in FIELDS:
            assert np.array_equal(getattr(kept, name)[2], getattr(merged, name)[0]), name
            assert np.array_equal(getattr(kept, name)[others],
                                  getattr(before, name)[others]), name
            assert np.array_equal(getattr(rest, name),
                                  getattr(new_before, name)[[0, 2]]), name


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
        mem = init_memory(make_batch(12, seed=18), FusionConfig())
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        loaded = load_gmem(path)
        assert len(loaded) == len(mem)
        assert np.allclose(loaded.batch.means, mem.batch.means, atol=1e-6)
        assert np.allclose(loaded.batch.logits, mem.batch.logits, atol=1e-5)
        assert loaded.fusion.voxel_size == mem.fusion.voxel_size

    def test_load_holds_only_the_file_and_the_batch(self, tmp_path):
        # 15,000 rows make a 3.1 MiB file: one more copy of its payload
        # would pass the bound by 2 MiB
        mem = GaussianMemory(make_batch(15000, seed=5), FusionConfig())
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        tracemalloc.start()
        try:
            loaded = load_gmem(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch_bytes = sum(getattr(loaded.batch, name).nbytes for name in FIELDS)
        assert batch_bytes == 2 * (path.stat().st_size - _GMEM_HEADER.size)
        assert peak <= path.stat().st_size + batch_bytes + 2**20

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=19), FusionConfig()))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmem(path)

    def test_bytes_estimate_is_file_size(self, tmp_path):
        mem = init_memory(make_batch(25, seed=23), FusionConfig())
        path = tmp_path / "m.gmem"
        save_gmem(path, mem)
        assert gmem_nbytes(mem.batch) == path.stat().st_size

    def test_nonzero_stored_origin_is_refused(self, tmp_path):
        # fusion cells are anchored at the world origin: the header's origin
        # is written as zeros, and a file naming another origin is refused
        # rather than re-anchored
        import struct

        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(25, seed=27), FusionConfig()))
        raw = bytearray(path.read_bytes())
        assert struct.unpack_from("<3d", raw, 28) == (0.0, 0.0, 0.0)
        struct.pack_into("<3d", raw, 28, 0.05, -0.03, 0.07)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="origin"):
            load_gmem(path)

    @pytest.mark.parametrize("field,value", [
        ("n_classes", 0), ("n_classes", 1), ("d_model", 0),
        ("voxel_size", 0.0), ("voxel_size", -0.1), ("voxel_size", float("nan")),
        ("voxel_size", float("inf")), ("origin", float("nan")),
        ("origin", float("-inf")),
    ])
    def test_bad_header_values(self, tmp_path, field, value):
        import struct

        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=24), FusionConfig()))
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
        save_gmem(path, init_memory(make_batch(3, seed=25), FusionConfig()))
        raw = bytearray(path.read_bytes())
        raw[52:56] = np.float32(value).tobytes()  # first mean coordinate
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_gmem(path)

    @pytest.mark.parametrize("column,value", [
        ("scales", 1e39), ("means", np.nan), ("logits", -np.inf), ("features", 4e38),
    ])
    def test_value_float32_cannot_store_is_refused_before_writing(self, tmp_path,
                                                                  column, value):
        # The cast would warn and write inf, which load_gmem refuses.
        mem = init_memory(make_batch(3, seed=26), FusionConfig())
        getattr(mem.batch, column)[1, 0] = value
        path = tmp_path / "m.gmem"
        with pytest.raises(InvariantError, match=column):
            save_gmem(path, mem)
        assert not path.exists()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=20), FusionConfig()))
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        with pytest.raises(FormatError):
            load_gmem(path)


def reload(memory: GaussianMemory) -> GaussianMemory:
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.gmem"
        save_gmem(path, memory)
        return load_gmem(path)


@st.composite
def means_near_faces(draw):
    """A cell size and (N, 3) means, each component within four float32
    steps of a fusion-cell face and off the float32 values by a drawn
    fraction of a step."""
    size = draw(st.sampled_from([0.12, 0.1, 0.08, 0.05, 1 / 3, 0.3]))
    n = draw(st.integers(1, 20))

    def triples(elements):
        return np.array(draw(st.lists(elements, min_size=3 * n, max_size=3 * n)),
                        dtype=np.float64).reshape(n, 3)

    faces = triples(st.integers(-4000, 4000)) * size
    steps = triples(st.integers(-4, 4)) + triples(st.floats(-0.5, 0.5))
    ulps = np.spacing(np.abs(faces).astype(np.float32)).astype(np.float64)
    return size, faces + steps * ulps


class TestCheckpointKeepsCells:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(means_near_faces())
    def test_every_row_keeps_its_cell_near_cell_faces(self, case):
        size, means = case
        batch = make_batch(len(means), seed=0)
        batch.means[:] = means
        memory = GaussianMemory(batch, FusionConfig(voxel_size=size))
        loaded = reload(memory)
        assert np.array_equal(loaded.cells, memory.cells)
        # only the means that the cast carried out of their cell move, by
        # one float32 step at most
        assert np.all(np.abs(loaded.batch.means - means) <= np.spacing(
            np.abs(means).astype(np.float32)))

    def test_only_the_component_that_left_its_cell_is_stepped(self):
        # float32(0.12) lies below the face at 1 cell and is stepped back
        # up; float32(-0.12) stays in cell -1 with -0.12, and stepping it
        # toward -0.12 would carry it into cell -2
        batch = make_batch(1, seed=1)
        batch.means[:] = [[0.12, -0.12, 0.0]]
        memory = GaussianMemory(batch, FusionConfig(voxel_size=0.12))
        loaded = reload(memory)
        assert np.array_equal(loaded.cells, memory.cells)
        x, y = np.float32(0.12), np.float32(-0.12)
        assert loaded.batch.means[0, 0] == np.nextafter(x, np.float32(1)) > 0.12 > float(x)
        assert loaded.batch.means[0, 1] == y


@functools.cache
def gmem_file() -> bytes:
    """A valid three-row checkpoint."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.gmem"
        save_gmem(path, init_memory(make_batch(3, seed=28), FusionConfig()))
        return path.read_bytes()


def loads_or_format_error(raw: bytes) -> bool:
    """Whether `load_gmem` reads `raw`; False on a FormatError, and any
    other exception or warning fails the calling test."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "f.gmem"
        path.write_bytes(raw)
        try:
            load_gmem(path)
        except FormatError:
            return False
    return True


class TestFuzzLoadGmem:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_truncation(self, data):
        raw = gmem_file()
        assert not loads_or_format_error(raw[:data.draw(st.integers(0, len(raw) - 1))])

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, _GMEM_HEADER.size * 8 - 1))
    def test_header_bit_flip(self, bit):
        raw = bytearray(gmem_file())
        raw[bit // 8] ^= 1 << bit % 8
        loads_or_format_error(bytes(raw))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data(), st.sampled_from([0x7FC00000, 0x7FA00000, 0xFFC00001, 0x7F800000,
                                       0xFF800000]))
    def test_non_finite_payload_value(self, data, bits):
        raw = bytearray(gmem_file())
        n_floats = (len(raw) - _GMEM_HEADER.size) // 4
        at = _GMEM_HEADER.size + 4 * data.draw(st.integers(0, n_floats - 1))
        struct.pack_into("<I", raw, at, bits)
        assert not loads_or_format_error(bytes(raw))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from([8, 12, 16]), st.integers(2**16, 2**32 - 1))
    def test_huge_count_or_width(self, offset, value):
        raw = bytearray(gmem_file())
        struct.pack_into("<I", raw, offset, value)  # count, d_model, C
        assert not loads_or_format_error(bytes(raw))
