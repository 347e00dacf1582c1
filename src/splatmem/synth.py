"""Synthetic scenes standing in for a learned perception stack.

Scenes are box compositions, each voxelized into a ground-truth label
grid as `generate_scene` parses its scene-file text (`DEFAULT_SCENE` is
the default run's). Exact voxel ray marching (amanatides-woo
stepping) finds the surface each sampled pixel ray strikes, and a noise
controllable stub predictor turns those hits into per-frame primitive
batches so the temporal pipeline can run end to end. Each march starts
in the camera's voxel, free and on the grid where the trajectory places
it, and ends at the padding past the grid's edge or at the far plane; it
advances all live rays in rounds of `_MARCH_ROUND` steps and retires the
rays that stopped once per round. What depends only on the scene is
built once per run as `SceneMaps`: the label grid itself; a code grid
padded by one voxel, which answers free, occupied or off the grid for
the march, the stub's landing test and the trajectory's camera placement
with no bounds test; and the shell's per-axis runs and thin axis, which
shape the splats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import D_MODEL, NUM_CLASSES, CameraFrame, PrimitiveBatch
from .errors import InvalidInputError
from .grid import LABEL_MODE, VoxelGrid

DEFAULT_INTRINSICS = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
DEFAULT_WIDTH, DEFAULT_HEIGHT = 640, 480
DEFAULT_NEAR, DEFAULT_FAR = 0.1, 10.0

LIFT_GRID_H, LIFT_GRID_W = 30, 40
# Shape and strength of the stub's splats. Splats are surface aligned:
# thin along the struck voxel face's normal and sized in-plane to the local
# sample footprint (ray spacing grows with distance and grazing incidence).
# The in-plane size is further capped by how far the struck surface extends
# in each tangent direction, up to SURFACE_EXTENT_REACH voxels, so splats
# widen over large surfaces without bleeding past panel edges.
STUB_LOGIT_MAGNITUDE = 10.0
STUB_MOVED_OPACITY = 0.5
STUB_NORMAL_SCALE = 0.02
STUB_FOOTPRINT_GAIN = 1.2
STUB_TANGENT_SCALE_MIN, STUB_TANGENT_SCALE_MAX = 0.03, 0.25
# sigma may reach at most (guaranteed support) / STUB_SPILL_MARGIN, keeping
# the kernel at the first voxel past the surface edge subthreshold
STUB_SPILL_MARGIN = 1.7
SURFACE_EXTENT_REACH = 4
# 0 keeps the ray chord midpoint, 1 snaps to the struck voxel center;
# grazing chords hug voxel faces, so blending toward the center keeps
# sample means off cell boundaries
STUB_MEAN_CENTERING = 0.5
# The sweep's circle: radius as a fraction of the smaller horizontal
# extent, and camera height as a fraction of the vertical extent.
ORBIT_RADIUS_FRAC = 0.32
ORBIT_HEIGHT_FRAC = 0.5
# DDA steps every live ray takes between two stop tests of the march.
_MARCH_ROUND = 16


# A room: floor, walls and furniture panels, each a one-voxel shell that an
# inside-out sweep can see. Standing structure replaces the floor beneath
# it, so every surface junction is a clean class boundary.
DEFAULT_SCENE = """\
extent 4.8 4.8 2.88
box 0 0 0 4.8 4.8 0.08 1             # floor
box 0 0 0 0.08 4.8 2.88 2            # wall x=0
box 4.72 0 0 4.8 4.8 2.88 2          # wall x=max
box 0.08 0 0 4.72 0.08 2.88 2        # wall y=0
box 0.08 4.72 0 4.72 4.8 2.88 2      # wall y=max
box 0 1.6 1.12 0.08 3.2 2.08 3       # window cut into wall
box 1.04 0.96 0 1.12 2.24 1.04 9     # furniture panel
box 3.36 1.2 0 3.44 2.4 0.96 6       # sofa back panel
box 1.6 3.68 0 3.2 3.76 1.2 7        # table panel
box 2 0.88 0.72 2.8 0.96 1.44 8      # screen panel
box 2.24 2.24 0.64 2.64 2.64 0.72 4  # floating shelf slab
"""


# scene-file record -> the number of values it takes
_RECORDS = {"extent": 3, "voxel_size": 1, "classes": 1, "box": 7}
GT_VOXEL_SIZE = 0.08


def generate_scene(text: str) -> VoxelGrid:
    """The label grid of scene-file text: one record per line, `#` starts
    a comment. The records are
        extent X Y Z                       (required)
        voxel_size S                       (default GT_VOXEL_SIZE)
        classes C                          (default NUM_CLASSES)
        box X0 Y0 Z0 X1 Y1 Z1 CLASS        (any number; CLASS an integer)
    Each record takes exactly the values shown, and extent, voxel_size and
    classes appear at most once. The grid lies at the world origin with
    round(extent / S) voxels per axis. Each box, hi > lo inside the extent,
    paints the voxel centres it holds with its class, 0 to C - 2, and the
    last box wins. InvalidInputError names the line of a bad record.
    """
    single: dict = {}
    boxes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *vals = line.split()
        try:
            if key not in _RECORDS:
                raise ValueError(f"unknown record {key!r}")
            if len(vals) != _RECORDS[key]:
                raise ValueError(f"{key} takes {_RECORDS[key]} values, got {len(vals)}")
            if key == "box":
                c = np.array([float(v) for v in vals[:6]])
                boxes.append((lineno, c[:3], c[3:], int(vals[6])))
            elif key in single:
                raise ValueError(f"a second {key} record")
            else:
                single[key] = [(int if key == "classes" else float)(x) for x in vals]
        except ValueError as e:
            raise InvalidInputError(f"scene spec line {lineno}: {e}") from e
    if "extent" not in single:
        raise InvalidInputError("scene spec is missing the extent record")
    extent = np.array(single["extent"])
    if not np.all(np.isfinite(extent) & (extent > 0)):
        raise InvalidInputError(f"extent must be 3 finite positive values, got {extent.tolist()}")
    (vs,) = single.get("voxel_size", [GT_VOXEL_SIZE])
    (n_classes,) = single.get("classes", [NUM_CLASSES])
    # the check reports a bad voxel size before the dims it gives
    with np.errstate(divide="ignore", over="ignore"):
        grid = VoxelGrid.empty_labels((0.0, 0.0, 0.0), vs, np.round(extent / vs), n_classes)
    for lineno, lo, hi, cls in boxes:
        at = f"scene spec line {lineno}: box"
        if not np.all(hi > lo):  # also rejects NaN
            raise InvalidInputError(f"{at} {lo} to {hi}: hi must exceed lo on every axis")
        if np.any(lo < -1e-9) or np.any(hi > extent + 1e-9):
            raise InvalidInputError(f"{at} {lo} to {hi} exceeds the scene extent")
        if not 0 <= cls <= n_classes - 2:
            raise InvalidInputError(f"{at} class {cls} outside occupied range")
        # a box with no voxel center gives i0 > i1, an empty slice
        i0, i1 = grid.voxel_span(lo, hi)
        grid.values[i0[0] : i1[0] + 1, i0[1] : i1[1] + 1, i0[2] : i1[2] + 1] = cls
    return grid


@dataclass
class RayHits:
    """Raw trace results for a pixel sample set."""

    hit: np.ndarray        # (N,) bool
    t_entry: np.ndarray    # (N,) z-depth where the ray entered the hit voxel
    t_exit: np.ndarray     # (N,) z-depth where it would leave that voxel
    voxel: np.ndarray      # (N, 3) int index of the hit voxel
    face_axis: np.ndarray  # (N,) axis of the face the ray entered through


@dataclass(frozen=True)
class SceneMaps:
    """One scene as the stub predictor and the trajectory read it: the
    label `grid` it was built from; int8 `codes` padded by one voxel
    (0 free, 1 occupied, 2 outside); and per occupied voxel its shell's
    `_surface_extent` runs, int8 of shape dims + (3,), and their argmin
    `thin_axis` (both 0 at free voxels).

    `codes` answers every free, occupied or off-grid test of the march,
    the stub and the trajectory. A point's code is at `voxel_of(p) + 1`,
    which always lies in the padded grid because `voxel_of` clamps to
    [-1, dims]. The march starts in the camera's on-grid voxel and a ray
    reaches the padding one step after its last in-grid voxel, so it ends
    there or at the far plane with no bounds test. Steps that a ray takes
    past its stop, in the same round, may leave the padded grid; the march
    reads them with `clip` and discards them."""

    grid: VoxelGrid
    codes: np.ndarray
    runs: np.ndarray
    thin_axis: np.ndarray


def scene_maps(gt: VoxelGrid) -> SceneMaps:
    """Build the maps of one label grid, once per run. InvalidInputError
    if `gt` is not a label grid."""
    if gt.mode != LABEL_MODE:
        raise InvalidInputError("scene maps need a label grid")
    occupied = gt.values != gt.num_classes - 1
    codes = np.pad(occupied.astype(np.int8), 1, constant_values=2)
    shell = np.argwhere(occupied)
    runs = np.zeros(gt.dims + (3,), dtype=np.int8)
    runs[tuple(shell.T)] = _surface_extent(shell, SURFACE_EXTENT_REACH, (occupied, True))
    return SceneMaps(gt, codes, runs, np.argmin(runs, axis=-1).astype(np.int8))


def trace_rays(maps: SceneMaps, frame: CameraFrame, pixels: np.ndarray) -> RayHits:
    """March rays through the scene's grid to the first occupied voxel.

    Every ray starts at t = 0 in the camera's voxel (InvalidInputError,
    before any march, if it is off the grid) and ends at the first
    occupied voxel, at the padding past the grid's edge or past the far
    plane. The ray parameter equals camera-space depth, so entry/exit
    values place points along the ray directly.

    Live rays step in rounds of _MARCH_ROUND with no stop test. After each
    round one bulk pass over the round's recorded steps finds every ray's
    first stopping state, takes the ray's outputs from it and drops the ray.
    Each ray performs the same float operations in the same order as a
    scalar march, so the result is bit-identical to one; what it computes
    past its stop is discarded.
    """
    gt = maps.grid
    origin, dirs = frame.pixel_rays(pixels)
    cam = gt.voxel_of(origin)[0]
    if maps.codes[tuple(cam + 1)] == 2:
        raise InvalidInputError(f"camera at {origin.tolist()} lies off the scene's grid")
    n = len(dirs)
    vs = gt.voxel_size

    hit = np.zeros(n, dtype=bool)
    t_entry = np.full(n, np.inf)
    t_exit = np.full(n, np.inf)
    voxel = np.zeros((n, 3), dtype=np.int64)
    # Face the ray crossed into its current voxel; in the camera's voxel,
    # even an occupied one, it falls back to the dominant direction axis.
    face = np.argmax(np.abs(dirs), axis=1)

    ids = np.arange(n)
    strides = np.array(maps.codes.strides) // maps.codes.itemsize
    flat = np.full(n, (cam + 1) @ strides)
    step = np.where(dirs > 0, strides, -strides)
    with np.errstate(divide="ignore", over="ignore"):
        t_delta = vs / np.abs(dirs)
        inv_d = 1.0 / dirs
    next_face = gt.origin + (cam + (dirs > 0)) * vs
    # A direction component whose reciprocal overflows, zero or subnormal,
    # never reaches a face within float range.
    with np.errstate(invalid="ignore", over="ignore"):
        t_max = np.where(np.isinf(inv_d), np.inf, (next_face - origin) * inv_d)
    t_cur = np.zeros(n)
    axis = face.copy()
    codes = maps.codes.ravel()
    while len(ids):
        # A round: every live ray takes _MARCH_ROUND steps with no stop
        # test, recording the flat t_max index it stepped on and the t_cur
        # it reached. State j of the round is the voxel entered after j steps.
        m = len(ids)
        base = np.arange(0, 3 * m, 3)
        ks = np.empty((_MARCH_ROUND, m), dtype=np.int64)
        ts = np.empty((_MARCH_ROUND + 1, m))
        ts[0] = t_cur
        t_max_flat, t_delta_flat = t_max.ravel(), t_delta.ravel()
        for i in range(_MARCH_ROUND):
            k = np.add(base, np.argmin(t_max, axis=1), out=ks[i])
            t_now = np.take(t_max_flat, k, out=ts[i + 1])
            # one add per crossing, as in a scalar loop
            t_max_flat[k] = t_now + t_delta_flat[k]
        flats = np.cumsum(np.vstack([flat, np.take(step, ks)]), axis=0)
        # Steps past a ray's stop may leave the padded grid. They are
        # discarded, and `clip` keeps their gathers in range.
        code = np.take(codes, flats[:-1], mode="clip")
        stop = (code != 0) | (ts[:-1] > frame.far)
        ended = stop.any(axis=0)
        # Retire each ray that stopped at its first stopping state j. A ray
        # stopping at state 0 entered through the axis of the previous
        # round's last step. A hit entered its voxel at ts[j] and leaves it
        # at ts[j + 1].
        done = np.flatnonzero(ended)
        j = stop[:, done].argmax(axis=0)
        face[ids[done]] = np.where(j > 0, ks[j - 1, done] - 3 * done, axis[done])
        got = (code[j, done] == 1) & (ts[j, done] <= frame.far)
        j, done = j[got], done[got]
        r = ids[done]
        hit[r], t_entry[r], t_exit[r] = True, ts[j, done], ts[j + 1, done]
        voxel[r] = np.stack(np.unravel_index(flats[j, done], maps.codes.shape), axis=1) - 1
        keep = np.flatnonzero(~ended)
        axis = ks[-1, keep] - 3 * keep
        ids, flat, t_cur = ids[keep], flats[-1, keep], ts[-1, keep]
        step, t_delta, t_max = step[keep], t_delta[keep], t_max[keep]
    return RayHits(hit, t_entry, t_exit, voxel, face)


def sample_pixels(width: int, height: int, grid_h: int, grid_w: int) -> np.ndarray:
    """Centers of the pixels nearest a uniform grid_h x grid_w sampling grid."""
    us = np.minimum(np.floor((np.arange(grid_w) + 0.5) * width / grid_w), width - 1)
    vs = np.minimum(np.floor((np.arange(grid_h) + 0.5) * height / grid_h), height - 1)
    uu, vv = np.meshgrid(us + 0.5, vs + 0.5)
    return np.stack([uu.ravel(), vv.ravel()], axis=1)


@dataclass(frozen=True)
class NoiseParams:
    depth_sigma: float = 0.0
    logit_noise: float = 0.0
    flip_prob: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not (0 <= self.depth_sigma < np.inf and 0 <= self.logit_noise < np.inf):
            raise InvalidInputError("depth_sigma and logit_noise must be finite and >= 0")
        if not 0 <= self.flip_prob <= 1:
            raise InvalidInputError("flip_prob must lie in [0, 1]")


@dataclass(frozen=True)
class StubConfig:
    """The stub's lift sampling grid: grid_h x grid_w pixel rays per frame.
    The shape of the splats is fixed by the `STUB_*` module constants."""

    grid_h: int = LIFT_GRID_H
    grid_w: int = LIFT_GRID_W

    def __post_init__(self):
        if not (self.grid_h > 0 and self.grid_w > 0):
            raise InvalidInputError("grid_h and grid_w must be positive")


def _surface_extent(voxels: np.ndarray, reach: int,
                    *conditions: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Symmetric same-surface run length around voxels along each axis:
    (N, 3) voxels of support on the weaker side, up to `reach`, from
    one gather into the flattened maps. A run ends at the grid edge or where
    a (map, want) condition fails: a differently labeled voxel, or one whose
    thin axis differs from the sample's normal axis, which stops splats from
    widening around plane breaks like wall corners."""
    dims = np.array(conditions[0][0].shape)
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    # (sign * step, axis, N): each probe's coordinate along the axis and its
    # flat index, clipped into the maps where the probe leaves the grid
    offsets = np.concatenate([-np.arange(1, reach + 1), np.arange(1, reach + 1)])[:, None, None]
    moved = voxels.T + offsets
    same = (moved >= 0) & (moved < dims[:, None])
    flat = strides @ voxels.T + offsets * strides[:, None]
    for grid_map, want in conditions:
        same &= np.take(grid_map, flat, mode="clip") == want
    # a run is the index of the first probe that fails, past a False sentinel
    ends = np.pad(same.reshape(2, reach, *same.shape[1:]), ((0, 0), (0, 1), (0, 0), (0, 0)))
    return np.ascontiguousarray(np.argmin(ends, axis=1).min(axis=0).T)


def stub_predict(
    maps: SceneMaps,
    frame: CameraFrame,
    noise: NoiseParams,
    seed: int,
    cfg: StubConfig,
) -> PrimitiveBatch:
    """Ground-truth-guided local prediction with controllable corruption.

    Traces the lift sampling grid through the scene of `maps`, places each
    mean at the midpoint of the ray's chord through the struck voxel
    (strictly inside it) plus depth noise, and assigns as a high-magnitude
    logit the class of the voxel the mean lands in where `maps.codes`
    reads it occupied, else that of the struck voxel. Classes flip to a
    random wrong class with probability flip_prob; additive logit noise
    follows. Opacity is 1 for consistent hits and drops when the perturbed
    depth leaves the struck voxel.
    Features are D_MODEL zeros, the width of the encoder that refines them.
    """
    gt = maps.grid
    rng = np.random.default_rng(seed)
    pixels = sample_pixels(frame.width, frame.height, cfg.grid_h, cfg.grid_w)
    hits = trace_rays(maps, frame, pixels)
    n_all = len(pixels)
    n_cls = gt.num_classes - 1

    # Fixed draw order keeps runs reproducible for any hit pattern.
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
    voxels = hits.voxel[sel]
    centers = gt.origin + (voxels + 0.5) * gt.voxel_size
    clean = clean + STUB_MEAN_CENTERING * (centers - clean)
    means = clean + depth_noise[sel, None] * dirs

    cell = gt.voxel_of(means)
    landed = maps.codes[tuple(cell.T + 1)] == 1
    cls = gt.values[tuple(np.where(landed[:, None], cell, voxels).T)].astype(np.int64)

    flips = flip_roll[sel] < noise.flip_prob
    wrong = (cls + 1 + flip_target[sel]) % n_cls
    cls = np.where(flips, wrong, cls)

    consistent = np.all(cell == voxels, axis=1)
    opac = np.where(consistent, 1.0, STUB_MOVED_OPACITY)

    logits = np.zeros((len(sel), n_cls))
    logits[np.arange(len(sel)), cls] = STUB_LOGIT_MAGNITUDE
    logits += logit_noise[sel]

    # Surface-aligned anisotropy. The splat normal is the thinnest axis of
    # the struck shell (ties broken toward the ray's entry face), so
    # grazing side entries into a thin surface still flatten against it.
    # In-plane size follows the local sample footprint (ray spacing grows
    # with range and grazing incidence) but is capped by how far the
    # surface actually extends, so splats never spill past panel rims.
    runs = maps.runs[tuple(voxels.T)]
    entry = hits.face_axis[sel]
    normal_axis = maps.thin_axis[tuple(voxels.T)]
    entry_is_min = runs[np.arange(len(sel)), entry] <= runs.min(axis=1)
    normal_axis[entry_is_min] = entry[entry_is_min]
    hit_label = gt.values[tuple(voxels.T)]
    class_ext = _surface_extent(voxels, SURFACE_EXTENT_REACH, (gt.values, hit_label),
                                (maps.thin_axis, normal_axis)) * gt.voxel_size

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


def _look_at_pose(position: np.ndarray, forward: np.ndarray) -> np.ndarray:
    """Camera-to-world pose with +z forward, +x right, +y down."""
    f = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    if abs(f @ up) > 0.999:
        up = np.array([1.0, 0.0, 0.0])
    r = np.cross(f, up)
    r /= np.linalg.norm(r)
    d = np.cross(f, r)
    pose = np.eye(4)
    pose[:3, 0] = r
    pose[:3, 1] = d
    pose[:3, 2] = f
    pose[:3, 3] = position
    return pose


def generate_trajectory(maps: SceneMaps, n_frames: int, seed: int) -> list[CameraFrame]:
    """Seeded orbital sweep that pans across the scene over n_frames.

    Cameras sit on a circle around the scene center inside free space and
    look inward across the room with a cycling pitch, so the sweep
    progressively covers the floor, the opposite walls, and interior
    structure. The circle follows the extent of the scene's grid, its dims
    times its voxel size, and free space is read from `maps.codes`.
    Positions that fall in an occupied voxel or off the grid retreat toward
    the center deterministically; a scene with no free voxel at all is
    rejected. Each camera's free on-grid voxel is where `trace_rays` starts
    its march.
    """
    if n_frames < 1:
        raise InvalidInputError("n_frames must be >= 1")
    if not np.any(maps.codes == 0):
        raise InvalidInputError("scene has no free space for a trajectory")
    rng = np.random.default_rng(seed)
    gt = maps.grid
    extent = np.array(gt.dims) * gt.voxel_size
    center = gt.origin + extent / 2.0
    radius = ORBIT_RADIUS_FRAC * float(min(extent[0], extent[1]))
    z = gt.origin[2] + ORBIT_HEIGHT_FRAC * float(extent[2])
    pitches = np.array([-0.38, -0.06, 0.2])  # rad, cycled per frame

    frames = []
    for i in range(n_frames):
        theta = 2.0 * np.pi * i / n_frames + rng.uniform(-0.3, 0.3) * 2.0 * np.pi / n_frames
        pitch = pitches[i % len(pitches)] + rng.uniform(-0.05, 0.05)
        pos = np.array([
            center[0] + radius * np.cos(theta),
            center[1] + radius * np.sin(theta),
            z + rng.uniform(-0.08, 0.08),
        ])
        r = radius
        for _ in range(32):
            if maps.codes[tuple(gt.voxel_of(pos)[0] + 1)] == 0:
                break
            r *= 0.85
            pos[0] = center[0] + r * np.cos(theta)
            pos[1] = center[1] + r * np.sin(theta)
        else:
            raise InvalidInputError("could not place a camera in free space")
        # look across the room, through the vertical axis of the center
        forward = np.array([
            -np.cos(pitch) * np.cos(theta),
            -np.cos(pitch) * np.sin(theta),
            np.sin(pitch),
        ])
        frames.append(
            CameraFrame(
                DEFAULT_INTRINSICS.copy(), _look_at_pose(pos, forward),
                DEFAULT_WIDTH, DEFAULT_HEIGHT, DEFAULT_NEAR, DEFAULT_FAR,
            )
        )
    return frames
