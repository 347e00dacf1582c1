import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import GaussianPrimitive, cell_of, from_primitives, pack_cells
from splatmem.cavf import FusionConfig, fuse, fusion_weights
from splatmem.conf import confidence_values
from splatmem.core import MIN_SCALE, PrimitiveBatch, cell_key
from splatmem.errors import InvalidInputError

RNG = np.random.default_rng(17)
C = 12


def make_batch(n, spread=0.6, seed=None):
    rng = np.random.default_rng(seed) if seed is not None else RNG
    quats = rng.normal(size=(n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    return PrimitiveBatch(
        means=rng.uniform(0, spread, size=(n, 3)),
        scales=rng.uniform(0.02, 0.1, size=(n, 3)),
        rotations=quats,
        opacities=rng.uniform(0.1, 1.0, size=n),
        logits=rng.normal(size=(n, C - 1)),
        features=rng.normal(size=(n, 16)),
    )


def assign_voxels(b, cfg):
    """The fusion-cell key of each row of a new memory."""
    return cell_key(b.means, cfg.voxel_size)


def triples(b, cfg):
    """The fusion cell of each row of a new memory: floor(mean / voxel_size)."""
    return cell_of(b.means, np.zeros(3), cfg.voxel_size)


def fuse_with_config(b, cfg):
    cells = assign_voxels(b, cfg)
    return fuse(b, fusion_weights(b.confidences, cells), cells)


def grouped_average_oracle(batch, weights, cells):
    """Independent group-by weighted-average for scalar attributes."""
    keys = cells.tolist()
    groups = {}
    for i, k in enumerate(keys):
        groups.setdefault(k, []).append(i)
    out = {}
    for k, idx in groups.items():
        w = weights[idx]
        out[k] = {
            "mean": sum(w[j] * batch.means[i] for j, i in enumerate(idx)),
            "scale": sum(w[j] * batch.scales[i] for j, i in enumerate(idx)),
            "opacity": sum(w[j] * batch.opacities[i] for j, i in enumerate(idx)),
            "logits": sum(w[j] * batch.logits[i] for j, i in enumerate(idx)),
            "feature": sum(w[j] * batch.features[i] for j, i in enumerate(idx)),
        }
    return out


class TestAssignVoxels:
    """The fusion cell key: the key of cell_of(mean, 0, voxel_size)."""

    def test_interior_point(self):
        b = make_batch(1)
        b.means[0] = [0.06, 0.06, 0.06]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert cells[0] == pack_cells([0, 0, 0])

    def test_boundary_goes_up(self):
        b = make_batch(1)
        b.means[0] = [0.12, 0.0, 0.0]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert cells[0] == pack_cells([1, 0, 0])

    def test_negative_floor(self):
        b = make_batch(1)
        b.means[0] = [-0.01, 0.0, 0.0]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert cells[0] == pack_cells([-1, 0, 0])

    def test_accepts_primitive_list(self):
        prims = [GaussianPrimitive((0.05, 0.05, 0.05), (0.1,) * 3, (1, 0, 0, 0),
                                   1.0, np.zeros(C - 1))]
        cells = assign_voxels(from_primitives(prims), FusionConfig())
        assert cells[0] == pack_cells([0, 0, 0])


class TestFusionWeights:
    def test_equal_confidences_split_evenly(self):
        cells = np.zeros(2, dtype=np.int64)
        w = fusion_weights([0.37, 0.37], cells)
        assert np.allclose(w, [0.5, 0.5])

    def test_singleton_cell(self):
        w = fusion_weights([0.2], pack_cells([[1, 2, 3]]))
        assert w[0] == pytest.approx(1.0)

    def test_scalar_softmax_oracle(self):
        # (1.0, 0.0) -> (e, 1) normalized
        w = fusion_weights([1.0, 0.0], np.zeros(2, dtype=np.int64))
        e = np.exp(1.0)
        assert np.allclose(w, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
        assert w[0] == pytest.approx(0.73106, abs=1e-5)
        assert w[1] == pytest.approx(0.26894, abs=1e-5)

    def test_per_cell_sums_one(self):
        b = make_batch(60, seed=2)
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        w = fusion_weights(b.confidences, cells)
        keys = cells.tolist()
        for key in set(keys):
            idx = [i for i, k in enumerate(keys) if k == key]
            assert w[idx].sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w[idx] > 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fusion_weights([1.0], np.zeros(2, dtype=np.int64))


class TestFuse:
    def test_identical_pair_reproduces_input(self):
        b = make_batch(1, seed=3)
        pair = PrimitiveBatch(*(np.repeat(getattr(b, f), 2, axis=0) for f in (
            "means", "scales", "rotations", "opacities", "logits", "features")))
        cells = np.zeros(2, dtype=np.int64)
        w = fusion_weights(pair.confidences, cells)
        out = fuse(pair, w, cells).batch
        assert len(out) == 1
        assert np.allclose(out.means[0], b.means[0], atol=1e-12)
        assert np.allclose(out.scales[0], b.scales[0], atol=1e-12)
        assert np.allclose(out.opacities[0], b.opacities[0], atol=1e-12)
        assert np.allclose(out.logits[0], b.logits[0], atol=1e-12)
        q = out.rotations[0]
        ref = b.rotations[0]
        assert min(np.linalg.norm(q - ref), np.linalg.norm(q + ref)) < 1e-9

    def test_midpoint_of_equal_weights(self):
        b = make_batch(2, seed=4)
        b.means[0] = [0.0, 0.0, 0.0]
        b.means[1] = [0.06, 0.0, 0.0]
        b.opacities[1], b.logits[1] = b.opacities[0], b.logits[0]  # equal confidences
        cells = np.zeros(2, dtype=np.int64)
        w = fusion_weights(b.confidences, cells)
        out = fuse(b, w, cells).batch
        assert np.allclose(out.means[0], [0.03, 0.0, 0.0], atol=1e-12)

    def test_matches_group_by_oracle(self):
        b = make_batch(50, seed=5)
        cfg = FusionConfig(voxel_size=0.12)
        cells = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, cells)
        out = fuse(b, w, cells).batch
        oracle = grouped_average_oracle(b, w, cells)
        assert len(out) == len(oracle)
        for gi, cell in enumerate(np.unique(cells)):  # outputs are in key order
            exp = oracle[cell]
            assert np.allclose(out.means[gi], exp["mean"], atol=1e-9)
            assert np.allclose(out.scales[gi], exp["scale"], atol=1e-9)
            assert out.opacities[gi] == pytest.approx(exp["opacity"], abs=1e-9)
            assert np.allclose(out.logits[gi], exp["logits"], atol=1e-9)
            assert np.allclose(out.features[gi], exp["feature"], atol=1e-9)

    def test_count_equals_distinct_cells(self):
        b = make_batch(80, seed=6)
        cfg = FusionConfig(voxel_size=0.12)
        cells = assign_voxels(b, cfg)
        out = fuse_with_config(b, cfg)
        assert len(out) == len(np.unique(cells, axis=0))
        assert len(out) <= len(b)

    def test_convexity_of_scalar_attributes(self):
        b = make_batch(40, seed=7)
        cfg = FusionConfig(voxel_size=0.15)
        cells = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, cells)
        out = fuse(b, w, cells).batch
        keys = cells.tolist()
        for gi, cell in enumerate(np.unique(cells)):  # outputs are in key order
            idx = [i for i, k in enumerate(keys) if k == cell]
            assert b.opacities[idx].min() - 1e-12 <= out.opacities[gi]
            assert out.opacities[gi] <= b.opacities[idx].max() + 1e-12
            assert 0.0 <= out.opacities[gi] <= 1.0
            for a in range(3):
                assert b.means[idx, a].min() - 1e-12 <= out.means[gi, a]
                assert out.means[gi, a] <= b.means[idx, a].max() + 1e-12

    def test_order_invariance(self):
        b = make_batch(40, seed=9)
        cfg = FusionConfig(voxel_size=0.12)
        out1 = fuse_with_config(b, cfg)
        out2 = fuse_with_config(b.select(RNG.permutation(len(b))), cfg)
        assert np.array_equal(assign_voxels(out1.batch, cfg), assign_voxels(out2.batch, cfg))
        assert np.allclose(out1.batch.means, out2.batch.means, atol=1e-12)
        assert np.allclose(out1.batch.logits, out2.batch.logits, atol=1e-12)

    def test_idempotent_when_cells_stable(self):
        b = make_batch(30, seed=10)
        cfg = FusionConfig(voxel_size=0.12)
        once = fuse_with_config(b, cfg).batch
        twice = fuse_with_config(once, cfg).batch
        assert len(twice) == len(once)
        assert np.allclose(twice.means, once.means, atol=1e-9)

    def test_antipodal_quaternions_do_not_cancel(self):
        q = np.array([np.sqrt(0.5), 0.0, np.sqrt(0.5), 0.0])
        b = PrimitiveBatch(
            means=np.zeros((2, 3)),
            scales=np.full((2, 3), 0.1),
            rotations=np.stack([q, -q]),
            opacities=np.array([0.5, 0.5]),
            logits=np.zeros((2, C - 1)),
            features=np.zeros((2, 4)),
        )
        out = fuse_with_config(b, FusionConfig())
        assert not out.quat_fallback[0]
        got = out.batch.rotations[0]
        assert min(np.linalg.norm(got - q), np.linalg.norm(got + q)) < 1e-9

    def test_degenerate_sum_falls_back_to_reference(self):
        # Sign alignment keeps a sum of unit quaternions at norm >= the
        # largest weight, so only near-zero quaternions can degenerate.
        b = PrimitiveBatch(
            means=np.zeros((2, 3)),
            scales=np.full((2, 3), 0.1),
            rotations=np.array([[1e-9, 0.0, 0.0, 0.0], [0.0, 1e-9, 0.0, 0.0]]),
            opacities=np.array([0.2, 0.9]),
            logits=np.zeros((2, C - 1)),
            features=np.zeros((2, 4)),
        )
        cells = np.zeros(2, dtype=np.int64)
        w = fusion_weights(b.confidences, cells)
        out = fuse(b, w, cells)
        assert out.quat_fallback[0]
        assert np.array_equal(out.batch.rotations[0], b.rotations[np.argmax(w)])

    def test_confidences_follow_the_merged_rows(self):
        b = make_batch(40, seed=11)
        cells = assign_voxels(b, FusionConfig())
        w = fusion_weights(b.confidences, cells)
        out = fuse(b, w, cells).batch
        assert len(out) < len(b)
        assert np.array_equal(out.confidences,
                              confidence_values(out.logits, out.opacities))

    def test_config_validation(self):
        for vs in (0.0, -0.1, np.nan, np.inf):
            with pytest.raises(InvalidInputError):
                FusionConfig(voxel_size=vs)
        # cells are anchored at the world origin and fused at temperature 1;
        # neither is a setting
        with pytest.raises(TypeError):
            FusionConfig(grid_origin_policy="scene_min")
        with pytest.raises(TypeError):
            FusionConfig(temperature=1.0)


# Reference implementations: the per-group loops that fusion_weights and
# fuse replaced, grouping (N, 3) cell triples. The loop-free versions,
# given the keys of the same cells, must reproduce them bit for bit.
def _reference_groups(cells):
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sc = cells[order]
    change = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    stops = np.concatenate([starts[1:], [len(cells)]])
    return [order[a:b] for a, b in zip(starts, stops)]


def fusion_weights_reference(conf, cells):
    w = np.empty(len(conf))
    for idx in _reference_groups(cells):
        z = conf[idx] - conf[idx].max()
        e = np.exp(z)
        w[idx] = e / e.sum()
    return w


def fuse_reference(b, w, cells):
    groups = _reference_groups(cells)
    out = {k: [] for k in ("means", "scales", "rotations", "opacities", "logits",
                           "features", "cells", "quat_fallback")}
    for idx in groups:
        gw = w[idx]
        out["cells"].append(cells[idx[0]])
        out["means"].append(np.clip(gw @ b.means[idx], b.means[idx].min(axis=0),
                                    b.means[idx].max(axis=0)))
        out["scales"].append(np.maximum(gw @ b.scales[idx], MIN_SCALE))
        out["opacities"].append(gw @ b.opacities[idx])
        out["logits"].append(gw @ b.logits[idx])
        out["features"].append(gw @ b.features[idx])
        quats = b.rotations
        ref = quats[idx[np.argmax(gw)]]
        aligned = quats[idx] * np.where(quats[idx] @ ref < 0, -1.0, 1.0)[:, None]
        qs = gw @ aligned
        norm = np.linalg.norm(qs)
        out["quat_fallback"].append(norm < 1e-8)
        out["rotations"].append(ref if norm < 1e-8 else qs / norm)
    return {k: np.array(v) for k, v in out.items()}


def clustered_batch(seed, n_cells=300, max_group=16):
    """Rows in n_cells random cells, 1 to max_group rows per cell, shuffled;
    some quaternions are sign-flipped copies of a neighbour's and the first
    groups have quaternion sums below the fallback threshold."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, max_group + 1, n_cells)
    cell_ids = rng.choice(10**6, n_cells, replace=False)
    centers = np.stack([cell_ids % 100, cell_ids // 100 % 100, cell_ids // 10**4],
                       axis=1) * 0.12 + 0.06
    means = np.repeat(centers, sizes, axis=0) + rng.uniform(-0.05, 0.05,
                                                            (sizes.sum(), 3))
    b = make_batch(len(means), seed=seed)
    b.means[:] = means
    flip = rng.random(len(b)) < 0.3
    b.rotations[flip] = -np.roll(b.rotations, 1, axis=0)[flip]
    # Sign alignment keeps a unit-quaternion sum away from zero, so the
    # fallback needs near-zero quaternions: scale a few groups down.
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    for s, k in list(zip(starts, sizes))[:8]:
        b.rotations[s:s + k] *= 1e-9
    perm = rng.permutation(len(b))
    return b.select(perm)


class TestLoopFreeMatchesReference:
    @pytest.mark.parametrize("seed", range(4))
    def test_fusion_weights_bitwise(self, seed):
        b = clustered_batch(seed)
        cfg = FusionConfig(voxel_size=0.12)
        keys, cells = assign_voxels(b, cfg), triples(b, cfg)
        assert np.array_equal(fusion_weights(b.confidences, keys),
                              fusion_weights_reference(b.confidences, cells))

    @pytest.mark.parametrize("seed", range(4))
    def test_fuse_bitwise(self, seed):
        b = clustered_batch(seed)
        cfg = FusionConfig(voxel_size=0.12)
        keys = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, keys)
        got = fuse(b, w, keys)
        ref = fuse_reference(b, w, triples(b, cfg))
        assert len(got) == len(ref["means"])
        assert np.array_equal(assign_voxels(got.batch, cfg), pack_cells(ref.pop("cells")))
        assert np.array_equal(got.quat_fallback, ref.pop("quat_fallback"))
        for name, expect in ref.items():
            assert np.array_equal(getattr(got.batch, name), expect), name
        assert np.array_equal(got.batch.confidences,
                              confidence_values(ref["logits"], ref["opacities"]))

    def test_fallback_groups_present(self):
        b = clustered_batch(0)
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        w = fusion_weights(b.confidences, cells)
        assert fuse(b, w, cells).quat_fallback.sum() >= 1

    def test_empty_input(self):
        b = make_batch(0)
        cells = np.zeros(0, dtype=np.int64)
        assert len(fusion_weights(b.confidences, cells)) == 0
        out = fuse(b, np.zeros(0), cells)
        assert len(out) == 0 and out.batch.features.shape == (0, 16)


@st.composite
def groups_near_faces(draw):
    """A cell size and a batch of 1 to 20 groups of 1 to 6 rows each, every
    group's means within a few float64 steps of a corner of its cell."""
    size = draw(st.sampled_from([0.12, 0.1, 0.08, 0.05, 1 / 3, 0.3]))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=20))
    corners = np.array(draw(st.lists(st.integers(-3000, 3000), min_size=3 * len(sizes),
                                     max_size=3 * len(sizes)))).reshape(-1, 3) * size
    corners = np.repeat(corners, sizes, axis=0)
    n = len(corners)
    steps = np.array(draw(st.lists(st.integers(-4, 4), min_size=3 * n, max_size=3 * n)))
    b = make_batch(n, seed=draw(st.integers(0, 2**16)))
    b.means[:] = corners + steps.reshape(n, 3) * np.spacing(np.abs(corners))
    return size, b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(groups_near_faces())
def test_each_fused_mean_stays_in_its_group_cell(case):
    # a convex combination of a group's means lies in their box, and so in
    # their cell; rounding alone must not carry it across a face
    size, b = case
    cells = cell_key(b.means, size)
    out = fuse(b, fusion_weights(b.confidences, cells), cells).batch
    assert np.array_equal(cell_key(out.means, size), np.unique(cells))
