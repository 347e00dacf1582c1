"""Run one splatmem episode of a benchmark workload in this process.

Usage: python3 perfbench/episode.py '<json spec>'

The spec holds ``workload``, ``seed`` (the episode's trajectory and stub
seed), ``trace`` (bool), ``out`` (output directory) and optionally
``frames`` and ``inject_failure``. The last line of standard output is one
JSON record: timings, the episode's score, the result of its correctness
check and, when traced, its per-layer metrics. Exit code 0 for a passing
episode, 1 for a failed one, 3 when a measured function no longer exists.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from tracer import HookMissing, Tracer, covered_seconds, summarize_spans

SRC = Path(__file__).resolve().parent.parent / "src"

# name -> (cli entry point, RunConfig.mode)
WORKLOADS = {
    "embodied": ("run_embodied", "embodied"),
    "local": ("run_local", "local"),
    "concat": ("run_embodied", "embodied-concat-baseline"),
}
# 4 episodes of 25 frames at 21 x 28 = 588 rays per frame (49% of the
# package default, 30 x 40) keep a run of any workload near 30 s on a
# 2-core host, so a run times 100 frames within the time the benchmark is
# given. The default scene and every stage of the pipeline are unchanged.
FRAMES = 25
LIFT_GRID = (21, 28)
# (iou, miou) of episode seed 0 at FRAMES and LIFT_GRID; checked to 1e-6.
REFERENCE = {
    "embodied": (0.94915655, 0.90870959),
    "local": (0.83645859, 0.78918698),
    "concat": (0.94146417, 0.83385661),
}
REFERENCE_TOL = 1e-6

# The metric names and units live in BENCHMARK.json. A per-layer name
# ending in ".s" is the summed self time of the span of that name, ".calls"
# its number of calls, anything else a count or ratio.
BENCHMARK = json.loads((SRC.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
# Taken from the untraced twin by the caller: the overhead compares the
# twins, and the cli.* figures describe the program, not the tracer.
FROM_TWINS = ("trace.overhead_frac", "cli.off_cpu_frac", "cli.voluntary_waits")
# Blocking calls per episode (voluntary context switches) above which the
# episode fails its check. Episodes blocked at most 4 times in the spread
# runs, and up to 28 times when they overwrote an earlier episode's output
# files. A blocking call in every fusion call, or more than four in every
# frame, passes this limit.
WAIT_LIMIT = 100


def _voluntary_switches() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


def _children_cpu() -> float:
    # Compared before and after the episode: a process that execs Python
    # keeps the CPU time of the children it ran before.
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


class InjectedFailure(RuntimeError):
    """Raised on purpose to show that a failing episode is counted."""


def _cell_dupes(mem) -> int:
    return len(mem.cells) - len(np.unique(mem.cells, axis=0)) if len(mem) else 0


def _span_hooks(cli, memory, attn, synth):
    """(module, attribute, span name, counts) for every measured boundary.

    Each function is hooked in the module that calls it, because that
    module's globals are where the call looks it up.
    """
    return [
        (cli, "stub_predict", "synth.stub_predict",
         lambda a, r: {"synth.primitives_out": len(r)}),
        (synth, "trace_rays", "synth.trace_rays", None),
        (cli, "generate_scene", "synth.generate_scene", None),
        (synth, "generate_scene", "synth.generate_scene", None),
        (cli, "generate_trajectory", "synth.generate_trajectory", None),
        (cli, "dte_step", "attn.dte_step", None),
        (memory, "dte_step", "attn.dte_step", None),
        (attn, "mha", "attn.mha",
         lambda a, r: {"attn.query_rows": len(a["Q"]), "attn.key_rows": len(a["K"]),
                       "attn.score_elems": a["n_heads"] * len(a["Q"]) * len(a["K"])}),
        (cli, "concat_batches", "attn.concat_batches",
         lambda a, r: {"attn.concat_rows": len(r)}),
        (memory, "concat_batches", "attn.concat_batches",
         lambda a, r: {"attn.concat_rows": len(r)}),
        (cli, "init_memory", "memory.init_memory", None),
        (cli, "update", "memory.update", None),
        (memory, "query_fov", "memory.query_fov",
         lambda a, r: {"memory.in_view_rows": len(r[0])}),
        (memory, "fusion_weights", "cavf.fusion_weights", None),
        (memory, "fuse", "cavf.fuse",
         lambda a, r: {"cavf.rows_in": len(a["cells"]), "cavf.cells_out": len(r),
                       "cavf.quat_fallbacks": int(r.quat_fallback.sum())}),
        (cli, "render", "splat.render",
         lambda a, r: {"splat.primitives_in": len(a["primitives"]),
                       "splat.voxels_out": r.dims[0] * r.dims[1] * r.dims[2]}),
        (cli, "argmax_labels", "splat.argmax_labels", None),
        (cli, "save_gmem", "memory.save_gmem",
         lambda a, r: {"memory.gmem_bytes": os.path.getsize(a["path"]),
                       "memory.rows_final": len(a["memory"])}),
        (cli, "load_gmem", "memory.load_gmem",
         lambda a, r: {"memory.gmem_cell_dupes": _cell_dupes(r)}),
        (cli, "save_vgrid", "grid.save_vgrid",
         lambda a, r: {"grid.vgrid_bytes": os.path.getsize(a["path"])}),
        (cli, "observed_mask", "metrics.observed_mask", None),
        (cli, "local_mask", "metrics.local_mask", None),
        (cli, "iou", "metrics.iou", None),
    ]


def layer_metrics(tracer: Tracer, t_first: float, t_end: float) -> dict:
    """Per-layer metrics of one traced episode, except FROM_TWINS."""
    spans = tracer.spans
    seconds, calls, counts = summarize_spans(spans)
    fuse_under_update: dict[int, int] = {}
    for s in spans:
        if s.name == "cavf.fuse" and s.parent is not None \
                and spans[s.parent].name == "memory.update":
            fuse_under_update[s.parent] = fuse_under_update.get(s.parent, 0) + 1
    peak = max((s.counts["attn.score_elems"] for s in spans if s.name == "attn.mha"),
               default=0)
    special = {
        "attn.peak_score_mb": peak * 8 / 2**20,
        "cavf.rows_per_cell": (counts["cavf.rows_in"] / counts["cavf.cells_out"]
                               if counts["cavf.cells_out"] else 0.0),
        "memory.collision_merges": sum(n - 1 for n in fuse_under_update.values()),
        "trace.coverage_frac": covered_seconds(spans, t_first, t_end) / (t_end - t_first),
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".s"):
            out[name] = seconds.get(name[:-2], 0.0)
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-6], 0)
        elif name not in FROM_TWINS:
            out[name] = counts.get(name, 0)
    return out


def check_episode(workload: str, seed: int, frames: int, report, out: Path,
                  saved_memory) -> list[str]:
    """The episode's correctness check; returns what failed, empty if none."""
    from splatmem.errors import FormatError, InvalidInputError
    from splatmem.grid import LABEL_MODE, load_vgrid

    errors = []
    if not (0.0 < report.iou <= 1.0 and 0.0 < report.miou <= 1.0):
        errors.append(f"score out of range: iou {report.iou} miou {report.miou}")
    if seed == 0 and frames == FRAMES:
        ref_iou, ref_miou = REFERENCE[workload]
        if abs(report.iou - ref_iou) > REFERENCE_TOL or abs(report.miou - ref_miou) > REFERENCE_TOL:
            errors.append(f"iou {report.iou:.6f} miou {report.miou:.6f} differ from "
                          f"the reference {ref_iou:.6f} {ref_miou:.6f}")

    def grids():
        if workload == "local":
            for i in range(frames):
                if load_vgrid(out / f"pred_frame_{i:03d}.vgrid").mode != LABEL_MODE:
                    raise InvalidInputError(f"pred_frame_{i:03d}.vgrid is not a label grid")
        else:
            load_vgrid(out / "final_pred.vgrid").check_normalized()

    checks = [grids]
    # The concatenation baseline keeps every row on purpose, so only the
    # fused memory promises one primitive per cell.
    if workload == "embodied":
        checks.append(saved_memory.check_unique_cells)
    for check in checks:
        try:
            check()
        except (FormatError, InvalidInputError, OSError) as e:
            errors.append(f"{type(e).__name__}: {e}")
    return errors


def run_episode(spec: dict) -> dict:
    workload = spec["workload"]
    entry, mode = WORKLOADS[workload]
    seed = spec["seed"]
    frames = spec.get("frames", FRAMES)
    out = Path(spec["out"])

    sys.path.insert(0, str(SRC))
    from splatmem import attn, cli, memory, synth

    cfg = cli.RunConfig(
        mode=mode, n_frames=frames, trajectory_seed=seed, stub_seed=seed,
        output_dir=str(out),
        stub=synth.StubConfig(grid_h=LIFT_GRID[0], grid_w=LIFT_GRID[1]),
    )
    # Times are CPU seconds of this process. The pipeline runs on one
    # thread (BLAS pinned to one), so on an idle host they equal wall time;
    # on a shared VM they leave out the time the host steals, which made
    # wall-clock p90 jump by half between runs of the same code.
    tracer = Tracer(clock=time.process_time)
    clock = tracer.clock
    cpu0, wall0, children0 = clock(), time.perf_counter(), _children_cpu()

    # The untraced run installs only these two wrappers: the frame-start
    # mark, and the checkpoint save that marks the end of the frame loop
    # and hands the live memory to the check.
    marks: list[float] = []
    first_wall: list[tuple[float, int]] = []
    saved: list[tuple[float, object]] = []
    inject = spec.get("inject_failure", False)

    def frame_start(orig):
        def wrapper(*args, **kwargs):
            marks.append(clock())
            if not first_wall:
                first_wall.append((time.perf_counter(), _voluntary_switches()))
            tracer.frame += 1
            if inject and tracer.frame == 1:
                raise InjectedFailure("failure injected at frame 1")
            return orig(*args, **kwargs)
        return wrapper

    def checkpoint(orig):
        def wrapper(path, mem):
            saved.append((clock(), mem))
            return orig(path, mem)
        return wrapper

    try:
        if spec["trace"]:
            for module, attr, name, counts in _span_hooks(cli, memory, attn, synth):
                tracer.hook(module, attr, name, counts)
        tracer.wrap(cli, "stub_predict", frame_start)
        tracer.wrap(cli, "save_gmem", checkpoint)
        report = getattr(cli, entry)(cfg)
        t_end, wall_end, switches_end = clock(), time.perf_counter(), _voluntary_switches()
        cpu, wall = t_end - cpu0, wall_end - wall0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        tracer.uninstall()

    loop_end = saved[0][0] if saved else t_end
    wall_first, switches_first = first_wall[0]
    record = {
        "ok": True,
        "setup_s": marks[0],
        "episode_s": t_end - marks[0],
        # Off-CPU time, which the CPU-time figures leave out: wall time of
        # the episode, and the times it blocked (sleeps, I/O waits, locks).
        "wall_episode_s": wall_end - wall_first,
        "voluntary_waits": switches_end - switches_first,
        "frame_ms": [(b - a) * 1e3 for a, b in zip(marks, marks[1:] + [loop_end])],
        "peak_rss_mb": peak_rss_mb,
        "iou": report.iou,
        "miou": report.miou,
    }
    if spec["trace"]:
        record["layers"] = layer_metrics(tracer, marks[0], t_end)
        tracer.write(out / "spans.jsonl")
    errors = check_episode(workload, seed, frames, report, out,
                           saved[0][1] if saved else None)
    if cpu > 1.05 * wall or _children_cpu() > children0:
        errors.append(f"the run used {cpu:.2f} CPU-s in {wall:.2f} s, or child "
                      f"processes: its CPU time no longer stands for its latency")
    if record["voluntary_waits"] > WAIT_LIMIT:
        errors.append(f"the episode blocked {record['voluntary_waits']} times "
                      f"(limit {WAIT_LIMIT}): its CPU time no longer stands for "
                      f"its latency")
    if errors:
        record.update(ok=False, errors=errors)
    return record


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    try:
        record = run_episode(spec)
    except HookMissing as e:
        print(f"hook missing: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # the episode failed; count it, do not crash
        traceback.print_exc()
        record = {"ok": False, "errors": [f"{type(e).__name__}: {e}"]}
    print(json.dumps(record))
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
