"""Batch driver for synthetic scene runs.

Subcommands: run-local, run-embodied, stats, render, fuse. A JSON config
file seeds the run configuration; explicit command-line flags win over
config file values. Exit codes: 0 success, 1 config error, 2 format
error, 3 internal invariant violation.

All artifacts are byte-deterministic given (config, seeds), except
timing.csv, which records wall-clock measurements and is therefore
excluded from the determinism contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attn import EncoderWeights, PrimitiveBatch, concat_batches, dte_step, init_weights
from .cavf import FusionConfig
from .conf import ConfidenceConfig
from .errors import ConfigError, FormatError, InvalidInputError, InvariantError
from .grid import VoxelGrid, load_vgrid, save_vgrid
from .memory import (GaussianMemory, gmem_nbytes, init_memory, load_gmem, save_gmem,
                     update)
from .metrics import MetricReport, iou, local_mask, observed_mask
from .splat import RenderOptions, argmax_labels, render
from .synth import (NoiseParams, StubConfig, default_scene, generate_scene,
                    generate_trajectory, load_scene_spec, stub_predict)

MODE_LOCAL = "local"
MODE_EMBODIED = "embodied"
MODE_CONCAT = "embodied-concat-baseline"


@dataclass
class EncoderConfig:
    d_model: int = 32
    n_heads: int = 4
    d_ff: int = 64
    seed: int = 42
    n_blocks: int = 2
    # The seeded refinement head stands in for trained parameters; its
    # random deltas would corrupt geometry, so runs zero it by default and
    # keep the feature/attention path live.
    zero_refinement: bool = True


@dataclass
class RunConfig:
    scene: str = "default"
    output_dir: str = "out"
    mode: str = MODE_EMBODIED
    n_frames: int = 30
    trajectory_seed: int = 0
    stub_seed: int = 0
    use_dte: bool = True
    noise: NoiseParams = field(default_factory=NoiseParams)
    confidence: ConfidenceConfig = field(default_factory=ConfidenceConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    stub: StubConfig = field(default_factory=StubConfig)


def _build_section(cls, data: dict, where: str):
    known = {f.name for f in fields(cls)}
    bad = set(data) - known
    if bad:
        raise ConfigError(f"{where}: unknown keys {sorted(bad)}")
    try:
        return cls(**data)
    except (TypeError, InvalidInputError) as e:
        raise ConfigError(f"{where}: {e}") from e


def load_run_config(path: str | None, overrides: dict) -> RunConfig:
    data: dict = {}
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file {path} does not exist")
        try:
            data = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {path}: invalid JSON ({e})") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path}: top level must be an object")
    sections = {
        "noise": NoiseParams,
        "confidence": ConfidenceConfig,
        "fusion": FusionConfig,
        "encoder": EncoderConfig,
        "stub": StubConfig,
    }
    kwargs: dict = {}
    for key, value in data.items():
        if key in sections:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            kwargs[key] = _build_section(sections[key], value, f"section {key!r}")
        elif key in {f.name for f in fields(RunConfig)}:
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = _build_section(RunConfig, kwargs, "run config")

    # Explicit flags beat config file values.
    for dotted, value in overrides.items():
        if value is None:
            continue
        if "." in dotted:
            section, name = dotted.split(".", 1)
            sub = getattr(cfg, section)
            try:
                setattr(cfg, section, replace(sub, **{name: value}))
            except (TypeError, InvalidInputError) as e:
                raise ConfigError(f"flag {dotted}: {e}") from e
        else:
            setattr(cfg, dotted, value)
    _validate_run_config(cfg)
    return cfg


def _validate_run_config(cfg: RunConfig) -> None:
    if cfg.mode not in (MODE_LOCAL, MODE_EMBODIED, MODE_CONCAT):
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    if cfg.n_frames < 1:
        raise ConfigError("n_frames must be >= 1")
    if cfg.scene != "default" and not Path(cfg.scene).exists():
        raise ConfigError(f"scene file {cfg.scene} does not exist")


def _load_scene(cfg: RunConfig):
    if cfg.scene == "default":
        return default_scene()
    try:
        return load_scene_spec(cfg.scene)
    except InvalidInputError as e:
        raise ConfigError(f"scene file {cfg.scene}: {e}") from e


def _make_weights(cfg: RunConfig, n_classes: int) -> EncoderWeights:
    w = init_weights(cfg.encoder.d_model, cfg.encoder.n_heads, cfg.encoder.d_ff,
                     n_classes, cfg.encoder.seed)
    return w.with_zero_refinement() if cfg.encoder.zero_refinement else w


def _fmt(v: float) -> str:
    return f"{v:.6f}"


def run_local(cfg: RunConfig) -> MetricReport:
    """Per-frame pipeline: stub predict, self-refine, fuse, render, score."""
    if cfg.mode != MODE_LOCAL:
        raise ConfigError(f"run-local invoked with mode {cfg.mode!r}")
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = _load_scene(cfg)
    gt = generate_scene(spec)
    frames = generate_trajectory(spec, cfg.n_frames, cfg.trajectory_seed)
    weights = _make_weights(cfg, gt.num_classes)
    empty_hist = PrimitiveBatch.empty(cfg.encoder.d_model, gt.num_classes)

    rows = ["frame,count,iou,miou,observed_fraction"]
    ious, mious = [], []
    for i, frame in enumerate(frames):
        batch = stub_predict(gt, frame, cfg.noise, cfg.stub_seed + i,
                             cfg.stub, cfg.confidence)
        if len(batch) and cfg.use_dte:
            batch, _ = dte_step(batch, empty_hist, weights,
                                cfg.encoder.n_blocks, cfg.confidence)
        if len(batch):
            mem = init_memory(batch, cfg.fusion, cfg.confidence)
            fused = mem.batch
        else:
            fused = batch
        pred = render(gt, fused)
        labels = argmax_labels(pred)
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
        float(np.nanmean(mious)), float("nan"),
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
    if cfg.mode not in (MODE_EMBODIED, MODE_CONCAT):
        raise ConfigError(f"run-embodied invoked with mode {cfg.mode!r}")
    concat_mode = cfg.mode == MODE_CONCAT
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec = _load_scene(cfg)
    gt = generate_scene(spec)
    frames = generate_trajectory(spec, cfg.n_frames, cfg.trajectory_seed)
    weights = _make_weights(cfg, gt.num_classes)

    memory: GaussianMemory | None = None
    concat_batch: PrimitiveBatch | None = None
    stat_rows = ["frame,count,inside,bytes"]
    time_rows = ["frame,seconds"]
    for i, frame in enumerate(frames):
        t0 = time.perf_counter()
        batch = stub_predict(gt, frame, cfg.noise, cfg.stub_seed + i,
                             cfg.stub, cfg.confidence)
        if concat_mode:
            if concat_batch is None:
                concat_batch = batch
            elif len(batch):
                concat_batch = concat_batches(concat_batch, batch)
            count, inside = len(concat_batch), len(batch)
            bytes_est = gmem_nbytes(count, concat_batch.n_logits + 1,
                                    concat_batch.d_model)
        else:
            if memory is None:
                if len(batch) == 0:
                    raise InvariantError("first frame produced no primitives")
                memory = init_memory(batch, cfg.fusion, cfg.confidence)
            else:
                update(memory, batch, frame, weights if cfg.use_dte else None,
                       cfg.encoder.n_blocks, cfg.confidence)
            count = len(memory)
            inside = memory.stats[-1].inside_count
            bytes_est = memory.bytes_estimate()
        stat_rows.append(f"{i},{count},{inside},{bytes_est}")
        time_rows.append(f"{i},{time.perf_counter() - t0:.4f}")

    final = concat_batch if concat_mode else memory.batch
    if concat_mode:
        origin = np.zeros(3)
        memory_to_save = GaussianMemory(
            final, cfg.fusion, origin,
            np.zeros((len(final), 3), dtype=np.int64),
        )
    else:
        memory_to_save = memory
    gmem_path = out / "final.gmem"
    save_gmem(gmem_path, memory_to_save)
    # Render from the reloaded checkpoint so the emitted grid matches a
    # later `render` of the same file bit for bit.
    reloaded = load_gmem(gmem_path, cfg.confidence)
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
    lines = [f"count {len(b)}", f"bytes {mem.bytes_estimate()}"]
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
    mem = load_gmem(args.gmem)
    if args.like:
        ref = load_vgrid(args.like)
        geom = VoxelGrid.empty_prob(ref.origin, ref.voxel_size, ref.dims,
                                    ref.num_classes)
    elif args.dims:
        if not args.voxel_size:
            raise ConfigError("--dims requires --voxel-size")
        origin = args.origin if args.origin else [0.0, 0.0, 0.0]
        geom = VoxelGrid.empty_prob(origin, args.voxel_size, args.dims,
                                    mem.batch.n_logits + 1)
    else:
        if len(mem.batch) == 0:
            raise ConfigError("cannot derive a grid from an empty memory")
        vs = args.voxel_size or 0.08
        pad = 0.5
        lo = mem.batch.means.min(axis=0) - pad
        hi = mem.batch.means.max(axis=0) + pad
        dims = np.maximum(np.ceil((hi - lo) / vs).astype(int), 1)
        geom = VoxelGrid.empty_prob(lo, vs, tuple(dims), mem.batch.n_logits + 1)
    out = render(geom, mem.batch, RenderOptions())
    if args.labels:
        out = argmax_labels(out)
    save_vgrid(args.out, out)


def cmd_fuse(args) -> None:
    from .memory import init_memory as _init

    mem = load_gmem(args.gmem)
    if len(mem.batch) == 0:
        raise ConfigError("cannot fuse an empty memory")
    fusion = FusionConfig(
        voxel_size=args.voxel_size or mem.fusion.voxel_size,
        temperature=args.temperature or mem.fusion.temperature,
    )
    fused = _init(mem.batch, fusion)
    save_gmem(args.out, fused)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        raise ConfigError(message)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run config; flags override it")
    p.add_argument("--scene", help="scene spec path or 'default'")
    p.add_argument("--output-dir")
    p.add_argument("--mode")
    p.add_argument("--frames", type=int, dest="n_frames")
    p.add_argument("--trajectory-seed", type=int)
    p.add_argument("--stub-seed", type=int)
    p.add_argument("--depth-sigma", type=float)
    p.add_argument("--logit-noise", type=float)
    p.add_argument("--flip-prob", type=float)
    p.add_argument("--fusion-voxel-size", type=float)
    p.add_argument("--fusion-temperature", type=float)
    p.add_argument("--encoder-seed", type=int)
    p.add_argument("--n-blocks", type=int)


def _overrides(args) -> dict:
    return {
        "scene": args.scene,
        "output_dir": args.output_dir,
        "mode": args.mode,
        "n_frames": args.n_frames,
        "trajectory_seed": args.trajectory_seed,
        "stub_seed": args.stub_seed,
        "noise.depth_sigma": args.depth_sigma,
        "noise.logit_noise": args.logit_noise,
        "noise.flip_prob": args.flip_prob,
        "fusion.voxel_size": args.fusion_voxel_size,
        "fusion.temperature": args.fusion_temperature,
        "encoder.seed": args.encoder_seed,
        "encoder.n_blocks": args.n_blocks,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="splatmem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser("run-local", help="per-frame prediction runs")
    _add_run_flags(p_local)
    p_emb = sub.add_parser("run-embodied", help="full-episode memory runs")
    _add_run_flags(p_emb)

    p_stats = sub.add_parser("stats", help="summarize a .gmem checkpoint")
    p_stats.add_argument("gmem")

    p_render = sub.add_parser("render", help="render a .gmem into a .vgrid")
    p_render.add_argument("gmem")
    p_render.add_argument("out")
    p_render.add_argument("--like", help="copy grid geometry from this .vgrid")
    p_render.add_argument("--dims", type=int, nargs=3)
    p_render.add_argument("--origin", type=float, nargs=3)
    p_render.add_argument("--voxel-size", type=float)
    p_render.add_argument("--labels", action="store_true")

    p_fuse = sub.add_parser("fuse", help="re-fuse a .gmem at a new cell size")
    p_fuse.add_argument("gmem")
    p_fuse.add_argument("out")
    p_fuse.add_argument("--voxel-size", type=float)
    p_fuse.add_argument("--temperature", type=float)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("run-local", "run-embodied"):
            cfg = load_run_config(args.config, _overrides(args))
            if args.command == "run-local":
                if cfg.mode != MODE_LOCAL:
                    raise ConfigError(
                        f"run-local requires mode '{MODE_LOCAL}', got {cfg.mode!r}"
                    )
                report = run_local(cfg)
            else:
                report = run_embodied(cfg)
            print(f"iou {report.iou:.6f} miou {report.miou:.6f}")
        elif args.command == "stats":
            sys.stdout.write(cmd_stats(args.gmem))
        elif args.command == "render":
            cmd_render(args)
        elif args.command == "fuse":
            cmd_fuse(args)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
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
