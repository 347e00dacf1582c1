"""Persistent world-frame primitive memory with bounded growth.

Each update retrieves the in-view slice of the memory, refines its
features and those of the frame's local prediction against each other
with the dual temporal encoder, merges the union through
confidence-aware voxel fusion, and writes the result back next to the
untouched out-of-view primitives. After every update there is at most
one primitive per fusion cell. A row's cell is the `core.cell_key` of its
mean, anchored at the world origin, and is never stored: not in memory,
not in a `.gmem` checkpoint. The cells two sets share are one
intersection of int64 keys.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields

import numpy as np

from .attn import EncoderWeights, dte_step
from .cavf import FusionConfig, fuse, fusion_weights
from .core import CameraFrame, PrimitiveBatch, cell_key, concat_batches
from .errors import FormatError, InvalidInputError, InvariantError

GMEM_MAGIC = b"GMEM"
GMEM_VERSION = 1
_GMEM_HEADER = struct.Struct("<4sI3Id3d")  # magic, version, count, d_model, C, cell size, origin
# float32 storage moves a unit quaternion's norm by about 1e-7.
_QUAT_NORM_TOL = 1e-3


def _record_layout(n_classes: int, d_model: int) -> tuple[tuple[str, int], ...]:
    """The fields of one `.gmem` record in file order, each a
    `PrimitiveBatch` field and its width in float32s."""
    return (("means", 3), ("scales", 3), ("rotations", 4), ("opacities", 1),
            ("logits", n_classes - 1), ("features", d_model))


def gmem_nbytes(batch: PrimitiveBatch, rows: int | None = None) -> int:
    """Size in bytes of the `.gmem` checkpoint of a batch, or of `rows`
    rows of its layout."""
    record = sum(w for _, w in _record_layout(batch.n_logits + 1, batch.d_model))
    return _GMEM_HEADER.size + (len(batch) if rows is None else rows) * record * 4


@dataclass
class GaussianMemory:
    """Accumulated primitive set and the fusion cell size it keeps."""

    batch: PrimitiveBatch
    fusion: FusionConfig

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def cells(self) -> np.ndarray:
        """(N,) fusion-cell key of each row: the cell of its mean."""
        return cell_key(self.batch.means, self.fusion.voxel_size)

    def check_unique_cells(self) -> None:
        if len(self) != len(np.unique(self.cells)):
            raise InvalidInputError("memory holds more than one primitive per cell")


def _fuse_cells(batch: PrimitiveBatch, voxel_size: float) -> PrimitiveBatch:
    """Fuse a batch into one row per fusion cell of its means."""
    cells = cell_key(batch.means, voxel_size)
    return fuse(batch, fusion_weights(batch.confidences, cells), cells).batch


def init_memory(prediction: PrimitiveBatch, cfg: FusionConfig) -> GaussianMemory:
    """Start a memory from the first frame's prediction, self-fused. An
    empty prediction gives an empty memory, which later updates fill."""
    return GaussianMemory(_fuse_cells(prediction, cfg.voxel_size), cfg)


def query_fov(memory: GaussianMemory, frame: CameraFrame) -> tuple[PrimitiveBatch, np.ndarray]:
    """Split the memory into the in-view batch and out-of-view indices.

    A primitive is inside when its mean projects within the image bounds at
    a depth in [near, far].
    """
    inside = frame.contains(memory.batch.means)
    idx_in = np.nonzero(inside)[0]
    idx_out = np.nonzero(~inside)[0]
    return memory.batch.select(idx_in), idx_out


def update(memory: GaussianMemory, local_prediction: PrimitiveBatch, frame: CameraFrame,
           weights: EncoderWeights) -> int:
    """Absorb one frame into the memory, in place; returns the number of
    memory rows that were in view.

    The temporal encoder changes only features, which no fusion weight
    reads. An empty local prediction leaves the memory as it is and
    counts no row in view.
    """
    if len(local_prediction) == 0:
        return 0

    inside, idx_out = query_fov(memory, frame)
    refined_local, refined_hist = dte_step(local_prediction, inside, weights)
    vs = memory.fusion.voxel_size
    new = _fuse_cells(concat_batches(refined_local, refined_hist), vs)
    kept, new = _merge_collisions(memory.batch.select(idx_out), new, vs)
    memory.batch = concat_batches(kept, new)
    return len(inside)


def _merge_collisions(kept: PrimitiveBatch, new: PrimitiveBatch,
                      voxel_size: float) -> tuple[PrimitiveBatch, PrimitiveBatch]:
    """Merge new rows into the kept rows that own the same cell.

    A cell can hold an out-of-view kept row and an in-view new one when it
    straddles the frustum's boundary, or when a local mean lies outside its
    own frame's frustum. The new rows hold one row per cell; the kept rows
    may repeat a cell (a loaded concat checkpoint does), and then the first
    of them is its owner. Each shared cell pairs
    its owner with its new row; all such pairs go through one fuse call,
    each group kept row first (the grouping sort is stable), exactly as a
    separate fuse of each pair. The merged rows replace their kept rows in
    place, the new rows are dropped, and every other row stays
    bit-identical. Returns (kept, new without the merged rows).
    """
    # ki and nj are first occurrences in key order, fuse's output order.
    _, ki, nj = np.intersect1d(cell_key(kept.means, voxel_size),
                               cell_key(new.means, voxel_size), return_indices=True)
    if len(ki) == 0:
        return kept, new
    merged = _fuse_cells(concat_batches(kept.select(ki), new.select(nj)), voxel_size)
    for f in fields(kept):
        getattr(kept, f.name)[ki] = getattr(merged, f.name)
    return kept, new.select(np.delete(np.arange(len(new)), nj))


def save_gmem(path, memory: GaussianMemory) -> None:
    """Write a `.gmem` checkpoint.

    Header {magic "GMEM", version u32, count u32, d_model u32, C u32,
    fusion voxel_size f64, origin 3 x f64} followed by one packed f32
    record per primitive, laid out by `_record_layout`: mean 3, scale 3,
    quat 4, opacity 1, logits C-1, feature d_model. The origin is always
    written as zeros, the world origin that anchors every fusion cell. A
    mean component that the float32 cast carries across a cell face is
    stepped one float32 value back toward its float64 value. Raises
    InvariantError, and writes nothing, when a record value is not finite
    in float32 or a mean is still outside its row's cell.
    """
    b = memory.batch
    d_model = b.d_model
    n_classes = b.n_logits + 1
    header = _GMEM_HEADER.pack(
        GMEM_MAGIC, GMEM_VERSION, len(b), d_model, n_classes,
        memory.fusion.voxel_size, 0.0, 0.0, 0.0,
    )
    layout = _record_layout(n_classes, d_model)
    columns = [getattr(b, name).reshape(len(b), width) for name, width in layout]
    f32_max = float(np.finfo(np.float32).max)
    for (name, _), col in zip(layout, columns):  # NaN fails the comparisons too
        if not (col.min(initial=0.0) >= -f32_max and col.max(initial=0.0) <= f32_max):
            raise InvariantError(f"gmem column {name} holds a value float32 cannot store")
    rec = np.concatenate(columns, axis=1, dtype="<f4", casting="same_kind")
    vs, cells = memory.fusion.voxel_size, memory.cells
    moved = np.nonzero(cell_key(rec[:, :3], vs) != cells)[0]  # means come first
    for a in range(3):  # step back each component that the cast took out
        probe = b.means[moved]
        probe[:, a] = rec[moved, a]
        rows = moved[cell_key(probe, vs) != cells[moved]]
        toward = np.copysign(np.inf, b.means[rows, a] - rec[rows, a]).astype("<f4")
        rec[rows, a] = np.nextafter(rec[rows, a], toward)
    if np.any(cell_key(rec[moved, :3], vs) != cells[moved]):
        raise InvariantError("a float32 mean lies outside the fusion cell of its row")
    with open(path, "wb") as f:
        f.write(header)
        f.write(rec.data)


def load_gmem(path) -> GaussianMemory:
    """Read a `.gmem` checkpoint that `save_gmem` wrote; FormatError on a
    malformed or non-finite header or record.

    Fusion cells are anchored at the world origin, so a header whose
    origin is not (0, 0, 0) is refused, as is a mean outside the range of
    a cell key. The feature width is the header's `d_model`, which may be
    any width >= 1.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _GMEM_HEADER.size:
        raise FormatError("gmem file shorter than header")
    magic, version, count, d_model, n_classes, vs, ox, oy, oz = _GMEM_HEADER.unpack_from(raw)
    if magic != GMEM_MAGIC:
        raise FormatError(f"bad gmem magic {magic!r}")
    if version != GMEM_VERSION:
        raise FormatError(f"unsupported gmem version {version}")
    if n_classes < 2 or d_model == 0:
        raise FormatError(f"gmem header has C={n_classes}, d_model={d_model}; "
                          "need C >= 2 and d_model >= 1")
    if not (np.isfinite(vs) and vs > 0):
        raise FormatError(f"gmem voxel size {vs} is not a positive number")
    if (ox, oy, oz) != (0.0, 0.0, 0.0):
        raise FormatError(f"gmem origin is ({ox}, {oy}, {oz}); fusion cells are "
                          "anchored at the world origin (0, 0, 0)")
    names, widths = zip(*_record_layout(n_classes, d_model))
    rec_width = sum(widths)
    expect = count * rec_width * 4
    size = len(raw) - _GMEM_HEADER.size
    if size != expect:
        raise FormatError(f"gmem payload is {size} bytes, expected {expect}")
    rec = np.frombuffer(raw, dtype="<f4", offset=_GMEM_HEADER.size).reshape(count, rec_width)
    # before widening: casting a signalling NaN raises the invalid flag
    if not np.all(np.isfinite(rec)):
        raise FormatError("gmem records hold non-finite values")
    cols = dict(zip(names, np.split(rec.astype(np.float64), np.cumsum(widths)[:-1], axis=1)))
    del raw, rec  # the file's bytes, before the checks' temporaries
    opac = cols["opacities"] = cols["opacities"][:, 0]
    if np.any(cols["scales"] <= 0):
        raise FormatError("gmem records hold a non-positive scale")
    if np.any((opac < 0) | (opac > 1)):
        raise FormatError("gmem records hold an opacity outside [0, 1]")
    if np.any(np.abs(np.linalg.norm(cols["rotations"], axis=1) - 1) > _QUAT_NORM_TOL):
        raise FormatError("gmem records hold a quaternion that is not unit norm")
    batch = PrimitiveBatch(**cols)
    try:
        cell_key(batch.means, vs)
    except InvariantError as e:
        raise FormatError(f"gmem records: {e}") from e
    return GaussianMemory(batch, FusionConfig(voxel_size=vs))
