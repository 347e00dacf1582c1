"""Batch driver for synthetic scene runs.

Subcommands: run-local, run-embodied, stats, render, fuse. A JSON config
file seeds the run configuration, and a set command-line flag wins over
the file's value. The file is checked alone first; then the flags are
merged in and the result is checked again, so a bad value is rejected
wherever it stands. A `RunConfig` built in code passes the same checks.
Exit codes: 0 success, 1 config error, 2 format error, 3 internal
invariant violation.

`render` exits 1 and writes nothing unless its grid (from `--like`, from
`--dims`, `--voxel-size` and `--origin`, or derived from the checkpoint's
bounding box) passes `grid.check_geometry` with the checkpoint's classes:
a non-finite origin or voxel size, a voxel size <= 0, a dim under 1,
more than `grid.MAX_GRID_CELLS` voxels x classes, or an origin so far out
that float64 cannot tell its voxel centres apart.

A fusion cell key (`core.cell_key`) holds cells within 2^20 fusion voxels
of the world origin on each axis: about 125 km at the default 0.12 m.
A run or `fuse` whose primitives leave that range exits 3, naming the
voxel size and the limit; a checkpoint whose means leave it exits 2.

All artifacts are byte-deterministic given (config, seeds), except
timing.csv, which records wall-clock measurements and is therefore
excluded from the determinism contract. A float32 product in the
attention rounds differently when its reduction is split across threads,
so importing `splatmem` pins OpenBLAS, OpenMP and MKL to one thread. The
pin takes effect only when `splatmem` is imported before numpy, as
`python -m splatmem.cli` and the `splatmem` script do; a process that
loaded numpy first keeps its BLAS thread count, and its checkpoints may
differ from theirs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from .attn import ENCODER_SEED, dte_step, init_weights
from .cavf import FusionConfig
from .core import PrimitiveBatch, concat_batches
from .errors import ConfigError, FormatError, InvalidInputError, InvariantError
from .grid import VoxelGrid, load_vgrid, save_vgrid
from .memory import (GaussianMemory, gmem_nbytes, init_memory, load_gmem, save_gmem,
                     update)
from .metrics import MetricReport, iou, local_mask, observed_mask
from .splat import argmax_labels, render
from .synth import (DEFAULT_SCENE, NoiseParams, SceneSpec, StubConfig, generate_scene,
                    generate_trajectory, parse_scene_spec, scene_maps, stub_predict)

MODE_LOCAL = "local"
MODE_EMBODIED = "embodied"
MODE_CONCAT = "embodied-concat-baseline"


@dataclass
class RunConfig:
    """The settings of one run. Building one checks its top-level values,
    as each section checks its own."""

    scene: str = "default"
    output_dir: str = "out"
    mode: str = MODE_EMBODIED
    n_frames: int = 30
    trajectory_seed: int = 0
    stub_seed: int = 0
    noise: NoiseParams = field(default_factory=NoiseParams)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    stub: StubConfig = field(default_factory=StubConfig)

    def __post_init__(self):
        if self.mode not in (MODE_LOCAL, MODE_EMBODIED, MODE_CONCAT):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.n_frames < 1:
            raise InvalidInputError("n_frames must be >= 1")
        if not (self.trajectory_seed >= 0 and self.stub_seed >= 0):
            raise InvalidInputError("trajectory_seed and stub_seed must be >= 0")


# JSON values each declared field type accepts; bool is an int to Python.
_ACCEPTS = {
    "bool": lambda v: isinstance(v, bool),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
}


def _build(cls, data, where: str):
    """The dataclass `cls` built from a JSON object. A field whose default
    is a dataclass is a section, built from its own object; every other
    value must have its field's JSON type. ConfigError naming `where` on
    an unknown key or a bad value."""
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    known = {f.name: f for f in fields(cls)}
    bad = set(data) - set(known)
    if bad:
        raise ConfigError(f"{where}: unknown keys {sorted(bad)}")
    kwargs = {}
    for name, value in data.items():
        f = known[name]
        if is_dataclass(f.default_factory):
            value = _build(f.default_factory, value, f"{where}, section {name!r}")
        else:
            type_ = getattr(f.type, "__name__", f.type)
            accepts = _ACCEPTS.get(type_)
            if accepts and not accepts(value):
                raise ConfigError(f"{where}: {name} must be {type_}, got {value!r}")
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except (TypeError, InvalidInputError) as e:
        raise ConfigError(f"{where}: {e}") from e


def load_run_config(path: str | None, overrides: dict, mode: str) -> RunConfig:
    """The run config of a JSON file, with each dotted key of `overrides`
    (a set flag) beating the file's value, and `mode`, the subcommand's,
    where neither sets one. The file alone and the merged values pass the
    same checks."""
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            data = json.loads(p.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config file {path}: invalid JSON ({e})") from e
        _build(RunConfig, data, f"config file {path}")
    data.setdefault("mode", mode)
    for dotted, value in overrides.items():
        section, _, name = dotted.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
    return _build(RunConfig, data, "run config")


def _episode(cfg: RunConfig, *modes: str):
    """The set-up of a run in one of `modes`: the output directory, the
    scene's maps (which carry its ground-truth grid), the trajectory and
    the encoder weights. The scene file, or `DEFAULT_SCENE`, is parsed,
    voxelized once, built into maps and given its trajectory before the
    directory is made, so a scene that fails any of these is a config
    error that leaves no directory behind."""
    if cfg.mode not in modes:
        raise ConfigError(f"this run takes mode {' or '.join(map(repr, modes))}, "
                          f"not {cfg.mode!r}")
    try:
        spec = parse_scene_spec(DEFAULT_SCENE if cfg.scene == "default"
                                else Path(cfg.scene).read_text())
        maps = scene_maps(generate_scene(spec))
        frames = generate_trajectory(spec, maps, cfg.n_frames, cfg.trajectory_seed)
    except (InvalidInputError, UnicodeDecodeError, OSError) as e:
        raise ConfigError(f"scene file {cfg.scene}: {e}") from e
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out, maps, frames, init_weights(ENCODER_SEED)


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def run_local(cfg: RunConfig) -> MetricReport:
    """Per-frame pipeline: stub predict, self-refine, fuse, render, score."""
    out, maps, frames, weights = _episode(cfg, MODE_LOCAL)
    gt = maps.grid
    empty_hist = PrimitiveBatch.empty(gt.num_classes)

    rows = ["frame,count,iou,miou,observed_fraction"]
    ious, mious = [], []
    for i, frame in enumerate(frames):
        batch = stub_predict(maps, frame, cfg.noise, cfg.stub_seed + i, cfg.stub)
        batch, _ = dte_step(batch, empty_hist, weights)
        fused = init_memory(batch, cfg.fusion).batch
        labels = render(gt, fused, labels=True)
        report = iou(labels, gt, local_mask(gt, frame))
        save_vgrid(out / f"pred_frame_{i:03d}.vgrid", labels)
        rows.append(
            f"{i},{len(fused)},{_fmt(report.iou)},{_fmt(report.miou)},"
            f"{_fmt(report.observed_fraction)}"
        )
        ious.append(report.iou)
        mious.append(report.miou)
    summary = MetricReport(
        float(np.mean(ious)), np.full(gt.num_classes - 1, np.nan),
        float(np.nanmean(mious)) if not np.all(np.isnan(mious)) else float("nan"),
        float("nan"),
    )
    rows.append(f"mean,,{_fmt(summary.iou)},{_fmt(summary.miou)},")
    (out / "metrics.csv").write_text("\n".join(rows) + "\n")
    (out / "report.txt").write_text(
        f"mode {cfg.mode}\nframes {cfg.n_frames}\n"
        f"mean_iou {_fmt(summary.iou)}\nmean_miou {_fmt(summary.miou)}\n"
    )
    return summary


def run_embodied(cfg: RunConfig) -> MetricReport:
    """Full-episode pipeline with the persistent memory (or the append-only
    concatenation baseline), scored over the observed region."""
    out, maps, frames, weights = _episode(cfg, MODE_EMBODIED, MODE_CONCAT)
    gt = maps.grid
    concat_mode = cfg.mode == MODE_CONCAT
    memory: GaussianMemory | None = None
    # The baseline joins its frames once, after the loop: joining in every
    # frame would copy the whole memory every frame.
    pieces = [PrimitiveBatch.empty(gt.num_classes)]
    held_rows = 0
    stat_rows = ["frame,count,inside,bytes"]
    time_rows = ["frame,seconds"]
    for i, frame in enumerate(frames):
        t0 = time.perf_counter()
        batch = stub_predict(maps, frame, cfg.noise, cfg.stub_seed + i, cfg.stub)
        inside = len(batch)
        if concat_mode:
            pieces.append(batch)
            held_rows += len(batch)
        else:
            if memory is None:
                memory = init_memory(batch, cfg.fusion)
            else:
                inside = update(memory, batch, frame, weights)
            held_rows = len(memory)
        stat_rows.append(f"{i},{held_rows},{inside},{gmem_nbytes(batch, held_rows)}")
        time_rows.append(f"{i},{time.perf_counter() - t0:.4f}")

    if concat_mode:
        memory = GaussianMemory(concat_batches(*pieces), cfg.fusion)
        del pieces
    gmem_path = out / "final.gmem"
    save_gmem(gmem_path, memory)
    # Render from the reloaded checkpoint so the emitted grid matches a
    # later `render` of the same file bit for bit.
    reloaded = load_gmem(gmem_path)
    pred = render(gt, reloaded.batch)
    save_vgrid(out / "final_pred.vgrid", pred)
    labels = argmax_labels(pred)
    save_vgrid(out / "final_labels.vgrid", labels)

    mask = observed_mask(gt, frames)
    report = iou(labels, gt, mask)
    (out / "stats.csv").write_text("\n".join(stat_rows) + "\n")
    (out / "timing.csv").write_text("\n".join(time_rows) + "\n")
    (out / "report.txt").write_text(f"mode {cfg.mode}\n" + report.to_text())
    rows = ["metric,value", f"iou,{_fmt(report.iou)}", f"miou,{_fmt(report.miou)}",
            f"observed_fraction,{_fmt(report.observed_fraction)}"]
    for c, v in enumerate(report.per_class_iou):
        rows.append(f"class_{c}_iou," + ("" if np.isnan(v) else _fmt(v)))
    (out / "metrics.csv").write_text("\n".join(rows) + "\n")
    return report


def cmd_stats(path: str) -> str:
    mem = load_gmem(path)
    b = mem.batch
    cells = len(np.unique(mem.cells))
    lines = [f"count {len(b)}", f"bytes {gmem_nbytes(b)}", f"cells {cells}",
             f"duplicate_cells {len(b) - cells}"]
    if len(b):
        lo, hi = b.means.min(axis=0), b.means.max(axis=0)
        lines.append("bbox_min " + " ".join(_fmt(v) for v in lo))
        lines.append("bbox_max " + " ".join(_fmt(v) for v in hi))
        labels = np.argmax(b.logits, axis=1)
        hist = np.bincount(labels, minlength=b.n_logits)
        for c, n in enumerate(hist):
            lines.append(f"class_{c} {n}")
    return "\n".join(lines) + "\n"


def cmd_render(args) -> None:
    if args.origin and not args.dims:
        raise ConfigError("--origin requires --dims")
    if args.like and (args.dims or args.voxel_size is not None):
        raise ConfigError("--like takes the grid from its file; it excludes "
                          "--dims and --voxel-size")
    if args.dims and args.voxel_size is None:
        raise ConfigError("--dims requires --voxel-size")
    mem = load_gmem(args.gmem)
    n_classes = mem.batch.n_logits + 1
    try:
        # render reads only the grid's geometry, so a label grid carries it
        if args.like:
            geom = load_vgrid(args.like)
        elif args.dims:
            origin = args.origin if args.origin else [0.0, 0.0, 0.0]
            geom = VoxelGrid.empty_labels(origin, args.voxel_size, args.dims, n_classes)
        elif len(mem.batch) == 0:
            raise ConfigError("cannot derive a grid from an empty memory")
        else:
            vs = SceneSpec.gt_voxel_size if args.voxel_size is None else args.voxel_size
            lo = mem.batch.means.min(axis=0) - 0.5
            hi = mem.batch.means.max(axis=0) + 0.5
            with np.errstate(divide="ignore", over="ignore"):  # a bad size fails the check
                dims = np.maximum(np.ceil((hi - lo) / vs), 1)
            geom = VoxelGrid.empty_labels(lo, vs, dims, n_classes)
        out = render(geom, mem.batch, labels=args.labels)
    except InvalidInputError as e:
        raise ConfigError(f"render grid: {e}") from e
    save_vgrid(args.out, out)


def cmd_fuse(args) -> None:
    mem = load_gmem(args.gmem)
    vs = mem.fusion.voxel_size if args.voxel_size is None else args.voxel_size
    fused = init_memory(mem.batch, _build(FusionConfig, {"voxel_size": vs}, "fuse"))
    save_gmem(args.out, fused)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


# (flag, dotted config key, type) of every run flag. The key is also the
# flag's argparse dest, so a set flag lands on the key it overrides.
_RUN_FLAGS = (
    ("--scene", "scene", str),
    ("--output-dir", "output_dir", str),
    ("--mode", "mode", str),
    ("--frames", "n_frames", int),
    ("--trajectory-seed", "trajectory_seed", int),
    ("--stub-seed", "stub_seed", int),
    ("--depth-sigma", "noise.depth_sigma", float),
    ("--logit-noise", "noise.logit_noise", float),
    ("--flip-prob", "noise.flip_prob", float),
    ("--fusion-voxel-size", "fusion.voxel_size", float),
)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config; flags override it")
    for flag, key, type_ in _RUN_FLAGS:
        p.add_argument(flag, dest=key, type=type_)


def _overrides(args) -> dict:
    """The dotted config keys of the run flags that were set."""
    given = vars(args)
    return {key: given[key] for _, key, _ in _RUN_FLAGS if given[key] is not None}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splatmem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("run-local", help="per-frame prediction runs")
    _add_run_flags(p_local)
    p_emb = sub.add_parser("run-embodied", help="full-episode memory runs")
    _add_run_flags(p_emb)

    p_stats = sub.add_parser("stats", help="summarize a .gmem checkpoint: rows, bytes, "
                             "fusion cells, rows beyond one per cell, classes")
    p_stats.add_argument("gmem")

    p_render = sub.add_parser("render", help="render a .gmem into a .vgrid")
    p_render.add_argument("gmem")
    p_render.add_argument("out")
    p_render.add_argument("--like", help="copy grid geometry from this .vgrid")
    p_render.add_argument("--dims", type=int, nargs=3)
    p_render.add_argument("--origin", type=float, nargs=3)
    p_render.add_argument("--voxel-size", type=float, help="voxel size (default "
                          f"{SceneSpec.gt_voxel_size} m where the grid is derived)")
    p_render.add_argument("--labels", action="store_true",
                          help="write the argmax label grid (uint16, the only "
                               "full-grid array built) instead of the probabilities")

    p_fuse = sub.add_parser("fuse", help="re-fuse a .gmem at a new cell size")
    p_fuse.add_argument("gmem")
    p_fuse.add_argument("out")
    p_fuse.add_argument("--voxel-size", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("run-local", "run-embodied"):
            run, mode = ((run_local, MODE_LOCAL) if args.command == "run-local"
                         else (run_embodied, MODE_EMBODIED))
            report = run(load_run_config(args.config, _overrides(args), mode))
            print(f"iou {report.iou:.6f} miou {report.miou:.6f}")
        elif args.command == "stats":
            sys.stdout.write(cmd_stats(args.gmem))
        elif args.command == "render":
            cmd_render(args)
        elif args.command == "fuse":
            cmd_fuse(args)
        return 0
    except (ConfigError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except FormatError as e:
        print(f"format error: {e}", file=sys.stderr)
        return 2
    except (InvariantError, InvalidInputError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
