"""Frustum masks against the projection of every voxel center, and IoU
against a per-class loop."""

import numpy as np
import pytest

import splatmem.metrics as metrics
from oracle import centers
from splatmem.core import CameraFrame
from splatmem.errors import InvalidInputError
from splatmem.grid import LABEL_MODE, VoxelGrid
from splatmem.metrics import _frustum_box, iou, local_mask, observed_mask
from splatmem.synth import (DEFAULT_INTRINSICS, DEFAULT_SCENE, _look_at_pose, generate_scene,
                            generate_trajectory, parse_scene_spec, scene_maps)

SPEC = parse_scene_spec(DEFAULT_SCENE)
GT = generate_scene(SPEC)
MAPS = scene_maps(GT)
EXTENT = SPEC.extent


def all_centers_mask(grid, frame):
    """Reference: every voxel center through `CameraFrame.contains`."""
    return frame.contains(centers(grid).reshape(-1, 3)).reshape(grid.dims)


def random_frames(n, seed):
    """Cameras in and around the scene, looking anywhere, with random image
    sizes and depth ranges; many frusta miss the grid or clip its faces."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        pos = rng.uniform(-1.0, 1.0, 3) * EXTENT + EXTENT / 2
        near = rng.uniform(0.05, 2.0)
        frames.append(CameraFrame(
            DEFAULT_INTRINSICS * [[rng.uniform(0.3, 2.0)], [rng.uniform(0.3, 2.0)], [1.0]],
            _look_at_pose(pos, rng.normal(size=3)),
            int(rng.integers(16, 800)), int(rng.integers(16, 600)),
            near, near + rng.uniform(0.1, 12.0)))
    return frames


def unclipped_box_mask(grid, frame):
    """Reference: the frustum test over the box around the frame's 8
    frustum corners at its own far plane, padded by one voxel."""
    w, h = frame.width, frame.height
    origin, dirs = frame.pixel_rays(np.array([[0, 0], [w, 0], [0, h], [w, h]]))
    ijk = grid.voxel_of(origin + np.concatenate([frame.near * dirs, frame.far * dirs]))
    lo = np.clip(ijk.min(axis=0) - 1, 0, grid.dims)
    hi = np.clip(ijk.max(axis=0) + 2, 0, grid.dims)
    box = tuple(slice(a, max(a, b)) for a, b in zip(lo.tolist(), hi.tolist()))
    out = np.zeros(grid.dims, dtype=bool)
    out[box] = all_centers_mask(grid, frame)[box]
    return out, box


class TestLocalMask:
    def test_random_frames_match_all_centers(self):
        frames = random_frames(240, seed=3)
        sizes = []
        for frame in frames:
            ref = all_centers_mask(GT, frame)
            assert np.array_equal(local_mask(GT, frame), ref)
            sizes.append(ref.sum())
        sizes = np.array(sizes)
        assert (sizes == 0).sum() >= 20 and (sizes > 1000).sum() >= 20

    def test_clipped_box_keeps_the_masks(self):
        # the default trajectory, whose far planes lie beyond the room, and
        # a frame whose far plane ends inside the grid
        frames = generate_trajectory(SPEC, MAPS, 30, 0)
        pose = _look_at_pose(EXTENT / 2, np.array([1.0, 0.2, 0.1]))
        inner = CameraFrame(DEFAULT_INTRINSICS, pose, 320, 240, 0.1, 1.0)
        clipped = unclipped = 0
        for frame in frames + [inner]:
            want, box = unclipped_box_mask(GT, frame)
            assert np.array_equal(local_mask(GT, frame), want)
            got = _frustum_box(GT, frame)[0]
            assert all(g.start >= b.start and g.stop <= b.stop for g, b in zip(got, box))
            clipped += np.prod([g.stop - g.start for g in got])
            unclipped += np.prod([b.stop - b.start for b in box])
        assert _frustum_box(GT, inner)[0] == unclipped_box_mask(GT, inner)[1]
        assert clipped < 0.95 * unclipped

    @pytest.mark.parametrize("chunk", [997, 4096])
    def test_chunks_give_the_whole_box_mask(self, monkeypatch, chunk):
        # 997 is less than one x-plane of these boxes, 4096 one or two
        frames = generate_trajectory(SPEC, MAPS, 10, 1) + random_frames(20, seed=6)
        monkeypatch.setattr(metrics, "_FRUSTUM_CHUNK", GT.values.size)
        whole = [_frustum_box(GT, frame) for frame in frames]
        monkeypatch.setattr(metrics, "_FRUSTUM_CHUNK", chunk)
        for frame, (box, inside) in zip(frames, whole):
            got_box, got = _frustum_box(GT, frame)
            assert got_box == box and np.array_equal(got, inside)
        assert sum(inside.size > 10 * chunk for _, inside in whole) >= 10

    def test_trajectory_frames_match_all_centers(self):
        for frame in generate_trajectory(SPEC, MAPS, 10, 2):
            assert np.array_equal(local_mask(GT, frame), all_centers_mask(GT, frame))


class TestObservedMask:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_union_matches_all_centers(self, seed):
        frames = random_frames(30, seed)
        ref = np.zeros(GT.dims, dtype=bool)
        for frame in frames:
            ref |= all_centers_mask(GT, frame)
        assert np.array_equal(observed_mask(GT, frames), ref)

    def test_needs_a_frame(self):
        with pytest.raises(InvalidInputError):
            observed_mask(GT, [])


def iou_per_class_loop(p, g, n_classes):
    """Reference: (occupancy IoU, per-class IoU, mIoU) of masked label
    arrays, one pass per class."""
    empty = n_classes - 1
    union = np.count_nonzero((p != empty) | (g != empty))
    occ = np.count_nonzero((p != empty) & (g != empty)) / union if union else 1.0
    per_class = np.full(empty, np.nan)
    for c in range(empty):
        u = np.count_nonzero((p == c) | (g == c))
        if u:
            per_class[c] = np.count_nonzero((p == c) & (g == c)) / u
    supported = [np.any(g == c) for c in range(empty)]
    miou = np.mean(per_class[supported]) if np.any(supported) else np.nan
    return occ, per_class, miou


class TestIou:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_per_class_loop(self, seed):
        rng = np.random.default_rng(seed)
        C = int(rng.integers(2, 13))
        dims = tuple(rng.integers(1, 12, 3).tolist())
        pred, gt = (rng.integers(0, C, dims) for _ in range(2))
        if seed % 2:  # all-empty ground truth: no class is supported
            gt[:] = C - 1
        mask = rng.random(dims) < 0.5
        mask.flat[0] = True
        report = iou(*(VoxelGrid((0, 0, 0), 0.1, dims, v, LABEL_MODE, C)
                       for v in (pred, gt)), mask)
        occ, per_class, miou = iou_per_class_loop(pred[mask], gt[mask], C)
        assert report.iou == occ
        assert np.array_equal(report.per_class_iou, per_class, equal_nan=True)
        assert np.array_equal(report.miou, miou, equal_nan=True)
