"""Persistent world-frame primitive memory with bounded growth.

Each update retrieves the in-view slice of the memory, cross-refines it
against the frame's local prediction with the dual temporal encoder,
merges the union through confidence-aware voxel fusion, and writes the
result back next to the untouched out-of-view primitives. After every
update there is at most one primitive per fusion cell.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .attn import EncoderWeights, PrimitiveBatch, concat_batches, dte_step
from .cavf import FusedSet, FusionConfig, fuse, fusion_origin, fusion_weights
from .conf import ConfidenceConfig, confidence_values
from .core import CameraFrame
from .errors import FormatError, InvalidInputError

GMEM_MAGIC = b"GMEM"
GMEM_VERSION = 1
_GMEM_HEADER = struct.Struct("<4sI3Id3d")  # magic, version, count, d_model, C, cell size, origin


def _record_floats(n_classes: int, d_model: int) -> int:
    """Width of one `.gmem` record: mean 3, scale 3, quat 4, opacity 1,
    logits C-1, feature d_model."""
    return 3 + 3 + 4 + 1 + (n_classes - 1) + d_model


def gmem_nbytes(count: int, n_classes: int, d_model: int) -> int:
    """Size in bytes of a `.gmem` checkpoint of `count` primitives."""
    return _GMEM_HEADER.size + count * _record_floats(n_classes, d_model) * 4


@dataclass
class FrameStats:
    frame: int
    count: int
    bytes_estimate: int
    inside_count: int


@dataclass
class GaussianMemory:
    """Accumulated primitive set plus its fusion-cell bookkeeping."""

    batch: PrimitiveBatch
    fusion: FusionConfig
    origin: np.ndarray
    cells: np.ndarray                       # (N, 3) fusion cell per primitive
    frame_counter: int = 0                  # number of update() calls applied
    stats: list[FrameStats] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.batch)

    def bytes_estimate(self) -> int:
        """Size in bytes of this memory's `.gmem` checkpoint."""
        return gmem_nbytes(len(self), self.batch.n_logits + 1, self.batch.d_model)

    def _log(self, inside_count: int) -> None:
        self.stats.append(
            FrameStats(self.frame_counter, len(self), self.bytes_estimate(), inside_count)
        )

    def check_unique_cells(self) -> None:
        if len(self.cells) != len(np.unique(self.cells, axis=0)):
            raise InvalidInputError("memory holds more than one primitive per cell")


def _cells_for(means: np.ndarray, origin: np.ndarray, voxel_size: float) -> np.ndarray:
    return np.floor((means - origin) / voxel_size).astype(np.int64)


def _from_fused(f: FusedSet, conf_cfg: ConfidenceConfig | None) -> PrimitiveBatch:
    confs = confidence_values(f.logits, f.opacities, conf_cfg)
    return PrimitiveBatch(f.means, f.scales, f.rotations, f.opacities,
                          f.logits, f.features, confs)


def _fuse_at_origin(
    batch: PrimitiveBatch, origin: np.ndarray, cfg: FusionConfig,
    conf_cfg: ConfidenceConfig | None,
) -> tuple[PrimitiveBatch, np.ndarray]:
    """Fuse a batch against a fixed grouping origin; returns (batch, cells)."""
    return _fuse_cells(batch, _cells_for(batch.means, origin, cfg.voxel_size),
                       cfg, conf_cfg)


def _fuse_cells(
    batch: PrimitiveBatch, cells: np.ndarray, cfg: FusionConfig,
    conf_cfg: ConfidenceConfig | None,
) -> tuple[PrimitiveBatch, np.ndarray]:
    """Fuse a batch grouped by the given cells; returns (batch, cells)."""
    w = fusion_weights(batch.confidences, cells, cfg.temperature)
    fused = fuse(batch, batch.features, w, cells)
    out = _from_fused(fused, conf_cfg)
    return out, fused.cells


def init_memory(
    prediction: PrimitiveBatch,
    cfg: FusionConfig | None = None,
    conf_cfg: ConfidenceConfig | None = None,
) -> GaussianMemory:
    """Start a memory from the first frame's prediction, self-fused."""
    if len(prediction) == 0:
        raise InvalidInputError("cannot initialize memory from an empty prediction")
    cfg = cfg or FusionConfig()
    origin = fusion_origin(prediction.means, cfg)
    batch, cells = _fuse_at_origin(prediction, origin, cfg, conf_cfg)
    mem = GaussianMemory(batch, cfg, origin, cells)
    mem._log(inside_count=len(prediction))
    return mem


def query_fov(
    memory: GaussianMemory, frame: CameraFrame, extent_sigmas: float | None = None
) -> tuple[PrimitiveBatch, np.ndarray]:
    """Split the memory into the in-view batch and out-of-view indices.

    A primitive is inside when its mean projects within the image bounds at
    a depth in [near, far]. With extent_sigmas set, a primitive also counts
    as inside when any corner of its extent_sigmas-scaled axis-aligned
    bound does (conservative culling for large primitives).
    """
    means = memory.batch.means
    inside = frame.contains(means)
    if extent_sigmas is not None and len(means):
        half = extent_sigmas * memory.batch.scales
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                for sz in (-1.0, 1.0):
                    corner = means + half * np.array([sx, sy, sz])
                    inside |= frame.contains(corner)
    idx_in = np.nonzero(inside)[0]
    idx_out = np.nonzero(~inside)[0]
    return memory.batch.select(idx_in), idx_out


def update(
    memory: GaussianMemory,
    local_prediction: PrimitiveBatch,
    frame: CameraFrame,
    weights: EncoderWeights | None,
    n_blocks: int = 2,
    conf_cfg: ConfidenceConfig | None = None,
    extent_sigmas: float | None = None,
) -> GaussianMemory:
    """Absorb one frame into the memory (mutates and returns it).

    With weights None the temporal encoder is skipped: the raw local batch
    is fused with the in-view slice as it is.
    """
    memory.frame_counter += 1
    if len(local_prediction) == 0:
        memory._log(inside_count=0)
        return memory

    inside, idx_out = query_fov(memory, frame, extent_sigmas)
    if weights is None:
        union = concat_batches(local_prediction, inside)
    else:
        refined_local, refined_hist = dte_step(local_prediction, inside, weights,
                                               n_blocks, conf_cfg)
        union = concat_batches(refined_local, refined_hist)
    new_batch, new_cells = _fuse_at_origin(union, memory.origin, memory.fusion,
                                           conf_cfg)
    kept_cells = memory.cells[idx_out]
    kept, new_batch, new_cells = _merge_collisions(
        memory.batch.select(idx_out), kept_cells, new_batch, new_cells,
        memory.fusion, conf_cfg)

    memory.batch = concat_batches(kept, new_batch)
    memory.cells = np.concatenate([kept_cells, new_cells])
    memory._log(inside_count=len(inside))
    return memory


def _merge_collisions(
    kept: PrimitiveBatch, kept_cells: np.ndarray,
    new: PrimitiveBatch, new_cells: np.ndarray,
    cfg: FusionConfig, conf_cfg: ConfidenceConfig | None,
) -> tuple[PrimitiveBatch, PrimitiveBatch, np.ndarray]:
    """Merge new rows into the kept rows that own the same cell.

    A refined mean can drift into a cell still owned by an out-of-view
    primitive. Both sides hold at most one row per cell, so each shared
    cell has one kept and one new row; all such pairs go through one fuse
    call, each group kept row first (lexsort is stable), exactly as a
    separate fuse of each pair. The merged rows replace their kept rows in
    place, the new rows are dropped, and every other row stays
    bit-identical. Returns (kept, new without the merged rows, its cells).
    """
    if len(kept) == 0 or len(new) == 0:
        return kept, new, new_cells
    uniq, ids = np.unique(np.concatenate([kept_cells, new_cells]), axis=0,
                          return_inverse=True)
    ids = ids.reshape(-1)
    kept_of_id = np.full(len(uniq), -1)
    kept_of_id[ids[: len(kept)]] = np.arange(len(kept))
    owner = kept_of_id[ids[len(kept):]]
    hit = owner >= 0
    if not hit.any():
        return kept, new, new_cells
    ki, nj = owner[hit], np.nonzero(hit)[0]
    pairs = concat_batches(kept.select(ki), new.select(nj))
    merged, _ = _fuse_cells(pairs, np.concatenate([kept_cells[ki], new_cells[nj]]),
                            cfg, conf_cfg)
    # fuse returns one row per pair, in lexicographic cell order
    ki = ki[np.lexsort(kept_cells[ki].T[::-1])]
    for name in ("means", "scales", "rotations", "opacities", "logits",
                 "features", "confidences"):
        getattr(kept, name)[ki] = getattr(merged, name)
    return kept, new.select(~hit), new_cells[~hit]


def save_gmem(path, memory: GaussianMemory) -> None:
    """Write a `.gmem` checkpoint.

    Header {magic "GMEM", version u32, count u32, d_model u32, C u32,
    fusion voxel_size f64, origin 3 x f64} followed by one packed f32
    record per primitive: mean 3, scale 3, quat 4, opacity 1, logits C-1,
    feature d_model. Confidences are derived data and are recomputed on
    load; counters and stats are not persisted.
    """
    b = memory.batch
    d_model = b.d_model
    n_classes = b.n_logits + 1
    header = _GMEM_HEADER.pack(
        GMEM_MAGIC, GMEM_VERSION, len(b), d_model, n_classes,
        memory.fusion.voxel_size, *memory.origin.tolist(),
    )
    rec = np.empty((len(b), _record_floats(n_classes, d_model)), dtype="<f4")
    np.concatenate(
        [b.means, b.scales, b.rotations, b.opacities[:, None], b.logits, b.features],
        axis=1, out=rec, casting="same_kind",
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(rec.tobytes())


def load_gmem(path, conf_cfg: ConfidenceConfig | None = None) -> GaussianMemory:
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
    origin = np.array([ox, oy, oz])
    if not np.all(np.isfinite(origin)):
        raise FormatError("gmem origin is not finite")
    rec_width = _record_floats(n_classes, d_model)
    expect = count * rec_width * 4
    payload = raw[_GMEM_HEADER.size:]
    if len(payload) != expect:
        raise FormatError(f"gmem payload is {len(payload)} bytes, expected {expect}")
    rec = np.frombuffer(payload, dtype="<f4").reshape(count, rec_width).astype(np.float64)
    if not np.all(np.isfinite(rec)):
        raise FormatError("gmem records hold non-finite values")
    means = rec[:, 0:3]
    scales = rec[:, 3:6]
    quats = rec[:, 6:10]
    opac = np.clip(rec[:, 10], 0.0, 1.0)
    logits = rec[:, 11 : 11 + n_classes - 1]
    feats = rec[:, 11 + n_classes - 1 :]
    confs = confidence_values(logits, opac, conf_cfg) if count else np.zeros(0)
    batch = PrimitiveBatch(means, scales, quats, opac, logits, feats, confs)
    cfg = FusionConfig(voxel_size=vs)
    mem = GaussianMemory(batch, cfg, origin,
                         _cells_for(means, origin, vs) if count else np.zeros((0, 3), dtype=np.int64))
    return mem
