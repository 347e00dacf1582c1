"""The stub predictor against its loop references.

The references below are the per-frame forms of the stub path: the ray
march that tests bounds on the unpadded grid and `far` per step, the
per-axis surface extent that walks each sign and step with its own
gathers, the per-axis runs and thin-axis map built from 24 shifted
copies of the occupancy, and the stub predictor built on them, which
rebuilds the uint16 occupancy and the thin-axis map every frame.
`trace_rays`, `scene_maps`, `_surface_extent` and `stub_predict` must
match them bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatmem.synth as synth
from oracle import cell_of
from splatmem.core import D_MODEL, NUM_CLASSES, CameraFrame, PrimitiveBatch
from splatmem.errors import InvalidInputError
from splatmem.grid import VoxelGrid
from splatmem.synth import (DEFAULT_FAR, DEFAULT_HEIGHT, DEFAULT_INTRINSICS,
                            DEFAULT_NEAR, DEFAULT_SCENE, DEFAULT_WIDTH, STUB_FOOTPRINT_GAIN,
                            STUB_LOGIT_MAGNITUDE, STUB_MEAN_CENTERING, STUB_MOVED_OPACITY,
                            STUB_NORMAL_SCALE, STUB_SPILL_MARGIN, STUB_TANGENT_SCALE_MAX,
                            STUB_TANGENT_SCALE_MIN, SURFACE_EXTENT_REACH, NoiseParams,
                            RayHits, SceneSpec, StubConfig, _look_at_pose, _surface_extent,
                            generate_scene, generate_trajectory,
                            parse_scene_spec, sample_pixels, scene_maps, stub_predict,
                            trace_rays)

SPEC = parse_scene_spec(DEFAULT_SCENE)
GT = generate_scene(SPEC)
EXTENT = SPEC.extent
LIFT_GRIDS = [(21, 28), (30, 40)]
FIELDS = ("means", "scales", "rotations", "opacities", "logits", "features")


def loop_trace_rays(gt, frame, pixels, far=None):
    """Reference: the DDA over the unpadded grid, one live set per step."""
    far = frame.far if far is None else far
    origin, dirs = frame.pixel_rays(pixels)
    with np.errstate(divide="ignore", over="ignore"):
        dirs = np.where(np.isinf(1.0 / dirs), 0.0, dirs)
    n = len(dirs)
    occupied = gt.values != gt.num_classes - 1
    dims = np.array(gt.dims)
    vs = gt.voxel_size
    hit = np.zeros(n, dtype=bool)
    t_entry = np.full(n, np.inf)
    t_exit = np.full(n, np.inf)
    voxel = np.zeros((n, 3), dtype=np.int64)
    face = np.argmax(np.abs(dirs), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_d = np.where(dirs != 0, 1.0 / dirs, np.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        lo_t = (gt.origin - origin) * inv_d
        hi_t = (gt.origin + dims * vs - origin) * inv_d
    t0 = np.nanmax(np.minimum(lo_t, hi_t), axis=1)
    t1 = np.nanmin(np.maximum(lo_t, hi_t), axis=1)
    for a in range(3):
        z = dirs[:, a] == 0
        inside = (origin[a] >= gt.origin[a]) & (origin[a] <= gt.origin[a] + dims[a] * vs)
        t1[z & ~inside] = -np.inf
    t_start = np.maximum(t0, 0.0)
    alive = (t_start <= t1) & (t_start <= far)
    # rays that miss may start at inf; they are placed at the origin
    pos = origin + np.where(alive, t_start, 0.0)[:, None] * dirs
    idx = np.clip(cell_of(pos, gt.origin, vs), 0, dims - 1)
    step = np.where(dirs > 0, 1, -1)
    with np.errstate(divide="ignore", over="ignore"):
        t_delta = np.where(dirs != 0, vs / np.abs(dirs), np.inf)
    next_face = gt.origin + (idx + (dirs > 0)) * vs
    with np.errstate(invalid="ignore", over="ignore"):
        t_max = np.where(dirs != 0, (next_face - origin) * inv_d, np.inf)
    t_cur = t_start.copy()
    while np.any(alive):
        live = np.nonzero(alive)[0]
        occ = occupied[idx[live, 0], idx[live, 1], idx[live, 2]]
        newly = live[occ]
        if len(newly):
            hit[newly] = True
            t_entry[newly] = t_cur[newly]
            t_exit[newly] = np.min(t_max[newly], axis=1)
            voxel[newly] = idx[newly]
            alive[newly] = False
            live = live[~occ]
            if len(live) == 0:
                continue
        axis = np.argmin(t_max[live], axis=1)
        t_cur[live] = t_max[live, axis]
        idx[live, axis] += step[live, axis]
        face[live] = axis
        t_max[live, axis] += t_delta[live, axis]
        out = (
            (idx[live, axis] < 0)
            | (idx[live, axis] >= dims[axis])
            | (t_cur[live] > far)
            | (t_cur[live] > t1[live])
        )
        alive[live[out]] = False
    return RayHits(hit, t_entry, t_exit, voxel, face)


def axis_surface_extent(labels, voxels, axis, voxel_size, reach, thin_map=None,
                        normal_axis=None):
    """Reference: the run length along one axis, two signs times `reach`
    steps, each with its own gathers."""
    dims = np.array(labels.shape)
    own = labels[voxels[:, 0], voxels[:, 1], voxels[:, 2]]
    contig = np.full(len(voxels), reach, dtype=np.int64)
    for sign in (-1, 1):
        run = np.zeros(len(voxels), dtype=np.int64)
        still = np.ones(len(voxels), dtype=bool)
        for step in range(1, reach + 1):
            probe = voxels.copy()
            probe[:, axis] += sign * step
            ok = (probe[:, axis] >= 0) & (probe[:, axis] < dims[axis])
            hit = np.zeros(len(voxels), dtype=bool)
            pc = np.clip(probe, 0, dims - 1)
            hit[ok] = labels[pc[ok, 0], pc[ok, 1], pc[ok, 2]] == own[ok]
            if thin_map is not None:
                same_plane = np.zeros(len(voxels), dtype=bool)
                same_plane[ok] = thin_map[pc[ok, 0], pc[ok, 1], pc[ok, 2]] == normal_axis[ok]
                hit &= same_plane
            still &= hit
            run += still
        contig = np.minimum(contig, run)
    return contig * voxel_size


def loop_thin_axis_map(occupied, reach):
    """Reference: per-voxel runs of occupied shell on the weaker side along
    each axis, up to `reach`, and the axis along which the shell is
    thinnest, from shifted copies of the whole occupancy."""
    runs = np.empty(occupied.shape + (3,), dtype=np.int8)
    for a in range(3):
        total = np.full(occupied.shape, reach, dtype=np.int8)
        for sign in (-1, 1):
            run = np.zeros(occupied.shape, dtype=np.int8)
            still = np.ones(occupied.shape, dtype=bool)
            for step in range(1, reach + 1):
                shifted = np.zeros(occupied.shape, dtype=bool)
                src = [slice(None)] * 3
                dst = [slice(None)] * 3
                if sign > 0:
                    src[a] = slice(step, None)
                    dst[a] = slice(None, -step)
                else:
                    src[a] = slice(None, -step)
                    dst[a] = slice(step, None)
                shifted[tuple(dst)] = occupied[tuple(src)]
                still &= shifted
                run += still
            total = np.minimum(total, run)
        runs[..., a] = total
    return runs, np.argmin(runs, axis=-1).astype(np.int8)


def reference_stub_predict(gt, frame, noise, seed, cfg):
    """Reference: the stub predictor on the loop references, rebuilding the
    scene's uint16 occupancy and thin-axis map every frame."""
    rng = np.random.default_rng(seed)
    pixels = sample_pixels(frame.width, frame.height, cfg.grid_h, cfg.grid_w)
    hits = loop_trace_rays(gt, frame, pixels)
    n_all = len(pixels)
    n_cls = gt.num_classes - 1
    depth_noise = rng.normal(0.0, 1.0, n_all) * noise.depth_sigma
    flip_roll = rng.random(n_all)
    flip_target = rng.integers(0, max(n_cls - 1, 1), n_all)
    logit_noise = rng.normal(0.0, 1.0, (n_all, n_cls)) * noise.logit_noise
    sel = np.nonzero(hits.hit)[0]
    if len(sel) == 0:
        return PrimitiveBatch.empty(gt.num_classes)
    t_mid = 0.5 * (hits.t_entry[sel] + hits.t_exit[sel])
    origin, dirs = frame.pixel_rays(pixels[sel])
    clean = origin + t_mid[:, None] * dirs
    centers = gt.origin + (hits.voxel[sel] + 0.5) * gt.voxel_size
    clean = clean + STUB_MEAN_CENTERING * (centers - clean)
    means = clean + depth_noise[sel, None] * dirs
    cell = gt.voxel_of(means)
    in_b = np.all((cell >= 0) & (cell < np.array(gt.dims)), axis=1)
    cell_cl = np.clip(cell, 0, np.array(gt.dims) - 1)
    land_label = gt.values[cell_cl[:, 0], cell_cl[:, 1], cell_cl[:, 2]]
    hit_label = gt.values[hits.voxel[sel, 0], hits.voxel[sel, 1], hits.voxel[sel, 2]]
    use_land = in_b & (land_label != gt.num_classes - 1)
    cls = np.where(use_land, land_label, hit_label).astype(np.int64)
    flips = flip_roll[sel] < noise.flip_prob
    wrong = (cls + 1 + flip_target[sel]) % n_cls
    cls = np.where(flips, wrong, cls)
    consistent = np.all(cell == hits.voxel[sel], axis=1)
    opac = np.where(consistent, 1.0, STUB_MOVED_OPACITY)
    logits = np.zeros((len(sel), n_cls))
    logits[np.arange(len(sel)), cls] = STUB_LOGIT_MAGNITUDE
    logits += logit_noise[sel]
    occupancy = np.where(gt.values != gt.num_classes - 1, 0, 1).astype(np.uint16)
    geom_ext = np.stack(
        [axis_surface_extent(occupancy, hits.voxel[sel], a, gt.voxel_size,
                             SURFACE_EXTENT_REACH) for a in range(3)],
        axis=1,
    )
    entry = hits.face_axis[sel]
    normal_axis = np.argmin(geom_ext, axis=1)
    entry_is_min = geom_ext[np.arange(len(sel)), entry] <= geom_ext.min(axis=1)
    normal_axis[entry_is_min] = entry[entry_is_min]
    thin_map = loop_thin_axis_map(gt.values != gt.num_classes - 1, SURFACE_EXTENT_REACH)[1]
    class_ext = np.stack(
        [axis_surface_extent(gt.values, hits.voxel[sel], a, gt.voxel_size,
                             SURFACE_EXTENT_REACH, thin_map, normal_axis)
         for a in range(3)],
        axis=1,
    )
    pix_angle = max(1.0 / frame.intrinsics[0, 0] * frame.width / cfg.grid_w,
                    1.0 / frame.intrinsics[1, 1] * frame.height / cfg.grid_h)
    d_norm = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
    incidence = np.abs(d_norm[np.arange(len(sel)), normal_axis])
    footprint = STUB_FOOTPRINT_GAIN * t_mid * pix_angle / np.maximum(incidence, 0.2)
    allowed = (class_ext + 0.5 * gt.voxel_size) / STUB_SPILL_MARGIN
    scales = np.clip(np.minimum(footprint[:, None], allowed),
                     STUB_TANGENT_SCALE_MIN, STUB_TANGENT_SCALE_MAX)
    scales[np.arange(len(sel)), normal_axis] = STUB_NORMAL_SCALE
    quats = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (len(sel), 1))
    feats = np.zeros((len(sel), D_MODEL))
    return PrimitiveBatch(means, scales, quats, opac, logits, feats)


def camera(position, forward, far=DEFAULT_FAR):
    return CameraFrame(DEFAULT_INTRINSICS.copy(),
                       _look_at_pose(np.asarray(position, dtype=float),
                                     np.asarray(forward, dtype=float)),
                       DEFAULT_WIDTH, DEFAULT_HEIGHT, DEFAULT_NEAR, far)


def on_the_grid(grid, position):
    cell = cell_of(position, grid.origin, grid.voxel_size)
    return bool(np.all((cell >= 0) & (cell < grid.dims)))


def random_cameras(n, seed):
    """Cameras on and around the scene's grid, looking anywhere, with far
    planes from shorter than one voxel row to past the whole grid."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        pos = rng.uniform(-0.8, 0.8, 3) * EXTENT + EXTENT / 2
        out.append(camera(pos, rng.normal(size=3), far=rng.uniform(0.2, 12.0)))
    return out


# Pixels of the default sampling grid plus the principal point and pixels
# on its row and column, whose rays have zero camera x or y components.
PIXELS = np.concatenate([
    sample_pixels(DEFAULT_WIDTH, DEFAULT_HEIGHT, 21, 28),
    [[320.0, 240.0], [320.0, 10.5], [320.0, 470.5], [5.5, 240.0], [630.5, 240.0]],
])


# The principal ray first, then four rays with a zero camera x or y
# component and a 4 x 5 grid across the view.
FEW_PIXELS = np.concatenate([PIXELS[-5:], sample_pixels(DEFAULT_WIDTH, DEFAULT_HEIGHT, 4, 5)])
ROUND = synth._MARCH_ROUND


@st.composite
def small_scenes_and_cameras(draw):
    """A grid of 1-12 voxels a side with up to four boxes, and a camera
    inside it, on its lower face or just inside its upper one along one
    axis, or inside an occupied voxel, looking along an axis or anywhere,
    with a far plane from just past the near plane to past the grid. Most
    rays of such grids step past the padded grid in the round they stop
    in."""
    vs = 0.1
    dims = np.array([draw(st.integers(1, 12)) for _ in range(3)])
    grid = VoxelGrid.empty_labels((0, 0, 0), vs, dims, NUM_CLASSES)
    for _ in range(draw(st.integers(0, 4))):
        lo = [draw(st.integers(0, n - 1)) for n in dims]
        hi = [draw(st.integers(a, n - 1)) + 1 for a, n in zip(lo, dims)]
        grid.values[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = draw(st.integers(0, 3))
    unit = st.floats(0.01, 0.99)
    pos = np.array([draw(unit) for _ in range(3)]) * dims * vs
    place = draw(st.sampled_from(["inside", "edge", "occupied"]))
    if place == "occupied":
        grid.values[tuple(cell_of(pos, grid.origin, vs))] = 0
    elif place == "edge":
        a = draw(st.integers(0, 2))
        pos[a] = (dims[a] - 1e-6) * vs if draw(st.booleans()) else 0.0
    if draw(st.booleans()):
        forward = np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from([-1, 1]))
    else:
        forward = np.array([draw(st.floats(-1, 1)) for _ in range(3)])
        if np.linalg.norm(forward) < 0.1:
            forward[draw(st.integers(0, 2))] = 1.0
    return grid, camera(pos, forward, far=draw(st.floats(DEFAULT_NEAR + 0.01, 3.0)))


def assert_hits_equal(got, ref):
    for name in ("hit", "t_entry", "t_exit", "voxel", "face_axis"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


# sha256 of the default scene's uint16 label grid, recorded from the
# Python box literals that the scene text replaced
DEFAULT_LABELS_SHA256 = "e6032480682c1f7a01206b35a9f6bd2e8e85a6bfa9d8e25fcfd5a220cdb396f7"


class TestSceneSpec:
    def test_default_label_grid_pinned(self):
        assert GT.dims == (60, 60, 36) and GT.values.dtype == np.uint16
        assert hashlib.sha256(GT.values.tobytes()).hexdigest() == DEFAULT_LABELS_SHA256

    @pytest.mark.parametrize("lo,hi", [
        ((0, 0, 0), (1, 0, 1)), ((0, 0, 0.5), (1, 1, 0.25)), ((np.nan, 0, 0), (1, 1, 1)),
        ((0, 0, 0), (1, 1, np.nan)),
    ], ids=["flat", "inverted", "nan_lo", "nan_hi"])
    def test_box_hi_must_exceed_lo(self, lo, hi):
        with pytest.raises(InvalidInputError, match="hi must exceed lo"):
            SceneSpec((1.0, 1.0, 1.0), [(lo, hi, 1)])

    @pytest.mark.parametrize("cls", [1.5, True, np.bool_(True), 1.0], ids=repr)
    def test_box_class_must_be_an_integer(self, cls):
        with pytest.raises(InvalidInputError, match="not an integer"):
            SceneSpec((1, 1, 1), [((0, 0, 0), (1, 1, 1), cls)], 0.5)

    def test_numpy_integer_box_class_accepted(self):
        spec = SceneSpec((1, 1, 1), [((0, 0, 0), (1, 1, 1), np.int64(3))], 0.5)
        assert np.all(generate_scene(spec).values == 3)


class TestSceneMaps:
    def test_padded_codes_and_maps(self):
        maps = scene_maps(GT)
        occupied = GT.values != GT.num_classes - 1
        assert maps.codes.dtype == np.int8
        assert maps.codes.shape == tuple(d + 2 for d in GT.dims)
        assert np.array_equal(maps.codes[1:-1, 1:-1, 1:-1], occupied.astype(np.int8))
        inner = np.zeros(maps.codes.shape, dtype=bool)
        inner[1:-1, 1:-1, 1:-1] = True
        assert np.all(maps.codes[~inner] == 2)
        runs = loop_thin_axis_map(occupied, SURFACE_EXTENT_REACH)[0]
        assert maps.runs.dtype == np.int8 and maps.runs.shape == GT.dims + (3,)
        assert np.array_equal(maps.runs[occupied], runs[occupied])
        assert not maps.runs[~occupied].any()

    def test_codes_at_voxel_of_read_off_the_grid_points_outside(self):
        # the grid and points of test_voxel_of_keeps_points_off_the_grid_off_it,
        # of which only the first lies on the grid, in voxel (0, 0, 2)
        grid = VoxelGrid.empty_labels((0.0, -1.0, 0.0), 0.5, (4, 2, 3), NUM_CLASSES)
        points = [[0.1, -0.9, 1.4], [-0.1, 0.01, 1.5], [1e300, -1e300, 7.0], [2.0, 0.0, -1e-9]]
        for label, code in [(NUM_CLASSES - 1, 0), (3, 1)]:
            grid.values[0, 0, 2] = label
            codes = scene_maps(grid).codes[tuple(grid.voxel_of(points).T + 1)]
            assert codes.tolist() == [code, 2, 2, 2]

    def test_probability_grid_is_rejected(self):
        values = np.full((2, 3, 4, NUM_CLASSES), 1.0 / NUM_CLASSES)
        with pytest.raises(InvalidInputError, match="label grid"):
            scene_maps(VoxelGrid((0, 0, 0), 0.1, (2, 3, 4), values))

    @pytest.mark.parametrize("reach", [1, 2, 4])
    def test_thin_axis_matches_shifted_copies_on_the_shell(self, reach, monkeypatch):
        monkeypatch.setattr(synth, "SURFACE_EXTENT_REACH", reach)
        rng = np.random.default_rng(reach)
        for occupied in (GT.values != GT.num_classes - 1, rng.random((20, 17, 9)) < 0.6):
            labels = np.where(occupied, 0, 11).astype(np.uint16)
            grid = VoxelGrid.empty_labels((0, 0, 0), 0.1, occupied.shape, NUM_CLASSES)
            grid.values[:] = labels
            maps = scene_maps(grid)
            runs, ref = loop_thin_axis_map(occupied, reach)
            assert np.array_equal(maps.runs[occupied], runs[occupied])
            assert not maps.runs[~occupied].any()
            assert np.array_equal(maps.thin_axis[occupied], ref[occupied])
            assert not maps.thin_axis[~occupied].any()


class TestTraceRays:
    @pytest.mark.parametrize("grid_hw", LIFT_GRIDS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_trajectory_matches_loop(self, seed, grid_hw):
        maps = scene_maps(GT)
        pixels = sample_pixels(DEFAULT_WIDTH, DEFAULT_HEIGHT, *grid_hw)
        for frame in generate_trajectory(SPEC, maps, 12, seed):
            assert_hits_equal(trace_rays(maps, frame, pixels),
                              loop_trace_rays(GT, frame, pixels))

    def test_random_cameras_match_loop(self):
        # on-grid cameras match the loop; off-grid ones raise
        maps = scene_maps(GT)
        cams = random_cameras(120, seed=5)
        on_grid = [on_the_grid(GT, c.position) for c in cams]
        assert 10 < sum(on_grid) < 110
        n_hit = n_miss = 0
        for frame, on in zip(cams, on_grid):
            if not on:
                with pytest.raises(InvalidInputError, match="off the scene's grid"):
                    trace_rays(maps, frame, PIXELS)
                continue
            ref = loop_trace_rays(GT, frame, PIXELS)
            assert_hits_equal(trace_rays(maps, frame, PIXELS), ref)
            n_hit += ref.hit.sum()
            n_miss += (~ref.hit).sum()
        assert n_hit > 1000 and n_miss > 1000

    @pytest.mark.parametrize("position,forward", [
        ((2.4, 2.4, 1.44), (1, 0, 0)),
        ((2.4, 2.4, 1.44), (0, -1, 0)),
        ((2.4, 2.4, 1.44), (0, 0, 1)),
        ((2.4, 2.4, 1.44), (0, 0, -1)),
        ((0.04, 2.4, 1.44), (1, 0, 0)),      # in the occupied window: stops at t = 0
        ((2.0, 2.0, 0.64), (1, 0, 0)),       # origin on voxel faces
        ((0.0, 2.4, 1.44), (0, 1, 0)),       # origin on the grid's x = 0 plane
        ((2.4, 2.4, 2.87), (0, 0, 1)),       # in the top layer, looking up: misses
        ((2.4, 2.4, 2.8), (1, 0, 0)),        # in the top layer: upper rays leave
        ((4.799, 2.4, 1.44), (-1, 0, 0)),    # in the last x layer, the wall
        ((0.1, 0.1, 0.1), (1, 0, 0)),        # in the free corner voxel (1, 1, 1)
    ])
    def test_axis_aligned_views_match_loop(self, position, forward):
        frame = camera(position, forward)
        origin, dirs = frame.pixel_rays(PIXELS)
        assert np.sum(dirs == 0) >= 5
        assert_hits_equal(trace_rays(scene_maps(GT), frame, PIXELS),
                          loop_trace_rays(GT, frame, PIXELS))

    @pytest.mark.parametrize("position,forward", [
        ((2.4, 2.4, 1.44), (1, 5e-324, 0)),
        ((2.4, 2.4, 1.44), (0, -1, 5e-324)),
        ((2.4, 2.4, 2.8), (1, -5e-324, 0)),  # in the top layer: upper rays leave
    ])
    def test_subnormal_direction_components_match_loop(self, position, forward):
        # 1 / d overflows: such a component acts as a zero one, with no warning
        frame = camera(position, forward)
        dirs = frame.pixel_rays(PIXELS)[1]
        assert np.any((dirs != 0) & (np.abs(dirs) < np.finfo(float).tiny))
        assert_hits_equal(trace_rays(scene_maps(GT), frame, PIXELS),
                          loop_trace_rays(GT, frame, PIXELS))

    @pytest.mark.parametrize("position,forward,far", [
        ((2.4, 2.4, 2.87), (0, 0, 1), DEFAULT_FAR),      # top layer, leaves at once
        ((2.4, 2.4, 1.6), (0.1, 0.2, 1), DEFAULT_FAR),   # looks up out of the open top
        ((0.3, 3.0, 2.4), (1, 0, 0), 2.5),               # far plane short of the walls
    ])
    def test_rays_that_miss_the_grid(self, position, forward, far):
        # the room has no ceiling: these rays leave the grid or pass `far`
        frame = camera(position, forward, far)
        hits = trace_rays(scene_maps(GT), frame, PIXELS)
        assert not hits.hit.any()
        assert_hits_equal(hits, loop_trace_rays(GT, frame, PIXELS))

    @pytest.mark.parametrize("position,forward", [
        ((-1.0, 2.4, 1.44), (1, 0, 0)),
        ((-1e-9, 2.4, 1.44), (1, 0, 0)),     # just below the grid's x = 0 plane
        ((-1.0, 6.0, 1.44), (1, 0, 0)),
        ((-1.0, 2.4, 1.44), (0, 1, 0)),
        ((2.4, 2.4, 6.0), (1, 0, 0)),
        ((2.4, 2.4, 6.0), (0, 0, 1)),
        ((-1.0, 2.4, 1.44), (1, -5e-324, 0)),
        ((-3.0, -3.0, 1.0), (-1, -1, 0)),
        ((2.4, 2.4, 9.0), (0.1, 0.2, 1)),
        ((-3.0, 2.4, 1.44), (1, 0, 0)),
    ])
    def test_off_grid_cameras_raise(self, position, forward):
        # the march starts in the camera's voxel, so a camera off the grid
        # is rejected before any ray is marched
        maps = scene_maps(GT)
        frame = camera(position, forward)
        assert not on_the_grid(GT, frame.position)
        with pytest.raises(InvalidInputError, match="off the scene's grid"):
            trace_rays(maps, frame, PIXELS)
        with pytest.raises(InvalidInputError, match="off the scene's grid"):
            stub_predict(maps, frame, NoiseParams(), 0, StubConfig())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_scenes_and_cameras())
    def test_generated_small_scenes_match_loop(self, scene):
        grid, frame = scene
        assert_hits_equal(trace_rays(scene_maps(grid), frame, FEW_PIXELS),
                          loop_trace_rays(grid, frame, FEW_PIXELS))

    @pytest.mark.parametrize("stop", [2, ROUND - 1, ROUND, ROUND + 1, 2 * ROUND])
    @pytest.mark.parametrize("by", ["wall", "far", "far on the wall", "grid end"])
    def test_stops_at_round_edges(self, stop, by):
        # A corridor along x with the camera in its first voxel, looking
        # down it: the principal ray enters voxel x = j after j steps.
        length = stop if by == "grid end" else stop + 3
        grid = VoxelGrid.empty_labels((0, 0, 0), 0.1, (length, 3, 3), NUM_CLASSES)
        if by != "grid end":
            grid.values[stop] = 0
        view = (0.05, 0.15, 0.15), (1, 0, 0)
        far = DEFAULT_FAR
        if by == "far":
            # entering x = j at t = 0.1 j - 0.05, the ray passes this far
            # plane as it enters the wall
            far = 0.1 * stop - 0.07
        elif by == "far on the wall":
            # a far plane exactly at the wall's entry still lets it count
            far = loop_trace_rays(grid, camera(*view), FEW_PIXELS).t_entry[0]
        frame = camera(*view, far)
        assert np.array_equal(frame.pixel_rays(FEW_PIXELS[:1])[1], [[1.0, 0.0, 0.0]])
        hits = trace_rays(scene_maps(grid), frame, FEW_PIXELS)
        assert_hits_equal(hits, loop_trace_rays(grid, frame, FEW_PIXELS))
        assert hits.hit[0] == (by in ("wall", "far on the wall"))
        if hits.hit[0]:
            assert hits.voxel[0].tolist() == [stop, 1, 1] and hits.face_axis[0] == 0


def hit_voxels(seed, frames=6):
    maps = scene_maps(GT)
    pixels = sample_pixels(DEFAULT_WIDTH, DEFAULT_HEIGHT, 30, 40)
    out = []
    for frame in generate_trajectory(SPEC, maps, frames, seed):
        hits = trace_rays(maps, frame, pixels)
        out.append((hits.voxel[hits.hit], hits.face_axis[hits.hit]))
    return out


class TestSurfaceExtent:
    @pytest.mark.parametrize("reach", [1, 4])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_gather_matches_per_axis_runs(self, seed, reach):
        occupied = GT.values != GT.num_classes - 1
        occupancy = np.where(occupied, 0, 1).astype(np.uint16)
        thin = loop_thin_axis_map(occupied, reach)[1]
        vs = GT.voxel_size
        # occupied voxels on every face of the grid as well as the hit voxels
        edge = np.array([[0, 5, 5], [59, 5, 5], [5, 0, 5], [5, 59, 5], [5, 5, 0],
                         [0, 5, 35], [0, 0, 0], [59, 59, 35]])
        assert occupied[tuple(edge.T)].all()
        for voxels, entry in hit_voxels(seed) + [(edge, np.array([0, 0, 1, 1, 2, 2, 0, 1]))]:
            geom = _surface_extent(voxels, reach, (occupied, True)) * vs
            ref = np.stack([axis_surface_extent(occupancy, voxels, a, vs, reach)
                            for a in range(3)], axis=1)
            assert np.array_equal(geom, ref)
            normal = np.where(geom[np.arange(len(voxels)), entry] <= geom.min(axis=1),
                              entry, np.argmin(geom, axis=1))
            labels = GT.values[voxels[:, 0], voxels[:, 1], voxels[:, 2]]
            cls = _surface_extent(voxels, reach, (GT.values, labels), (thin, normal)) * vs
            ref = np.stack([axis_surface_extent(GT.values, voxels, a, vs, reach, thin,
                                                normal) for a in range(3)], axis=1)
            assert np.array_equal(cls, ref)


class TestStubPredict:
    @pytest.mark.parametrize("noise", [
        NoiseParams(),
        NoiseParams(depth_sigma=0.05, logit_noise=0.5, flip_prob=0.2),
    ], ids=["clean", "noisy"])
    @pytest.mark.parametrize("grid_hw", LIFT_GRIDS)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_batches_match_reference(self, seed, grid_hw, noise):
        cfg = StubConfig(grid_h=grid_hw[0], grid_w=grid_hw[1])
        maps = scene_maps(GT)
        for i, frame in enumerate(generate_trajectory(SPEC, maps, 8, seed)):
            got = stub_predict(maps, frame, noise, seed + i, cfg)
            ref = reference_stub_predict(GT, frame, noise, seed + i, cfg)
            assert len(got) == len(ref) > 0
            for name in FIELDS:
                assert np.array_equal(getattr(got, name), getattr(ref, name)), name

    def test_frames_that_see_nothing_give_empty_batches(self):
        cfg = StubConfig(grid_h=12, grid_w=16)
        # looks up out of the room's open top
        frame = camera((2.4, 2.4, 2.0), (0, 0, 1))
        got = stub_predict(scene_maps(GT), frame, NoiseParams(), 0, cfg)
        assert len(got) == 0
        assert len(reference_stub_predict(GT, frame, NoiseParams(), 0, cfg)) == 0


# Two panels stand on the orbit of this scene, so that cameras 0 and 5 of
# the seed-0 sweep over 10 frames start inside them and retreat twice
# toward the center, to 0.85^2 of the 1.024 m orbit.
PANELS_ON_THE_ORBIT = """extent 3.2 3.2 2.0
box 0 0 0 3.2 3.2 0.08 1
box 2.4 1.2 0 2.8 2.0 2.0 5
box 0.4 1.4 0 0.8 1.8 1.6 6
"""


class TestGenerateTrajectory:
    @pytest.mark.parametrize("spec,retreats", [
        (SPEC, []),
        (parse_scene_spec(PANELS_ON_THE_ORBIT), [0, 5]),
    ], ids=["default", "panels_on_the_orbit"])
    def test_cameras_sit_in_free_voxels(self, spec, retreats):
        gt = generate_scene(spec)
        frames = generate_trajectory(spec, scene_maps(gt), 10, 0)
        radius = synth.ORBIT_RADIUS_FRAC * min(spec.extent[:2])
        retreated = []
        for i, frame in enumerate(frames):
            vox = cell_of(frame.position, gt.origin, gt.voxel_size)
            assert np.all((vox >= 0) & (vox < gt.dims))
            assert gt.values[tuple(vox)] == gt.num_classes - 1
            r = np.hypot(*(frame.position[:2] - spec.extent[:2] / 2))
            if not np.isclose(r, radius):
                assert r == pytest.approx(0.85**2 * radius)
                retreated.append(i)
        assert retreated == retreats
