"""Benchmark of splatmem episodes: one command, three named workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload embodied --seed 0 --seconds 20 --trace 0

Each episode runs in a fresh child process (perfbench/episode.py) that
imports splatmem from src/ and calls cli.run_embodied or cli.run_local.
Episodes run one after another until ``--seconds`` have passed and at
least MIN_EPISODES episodes and MIN_FRAMES frames are timed. Episode k of
a run uses trajectory and stub seed 1000 * seed + k.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs every episode twice, untraced and traced, and
reports the per-layer metrics of the traced twins. Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from episode import BENCHMARK, FROM_TWINS, PER_LAYER, SRC

HERE = Path(__file__).resolve().parent
WORK_DIR = Path(".perfbench_work")

UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
MIN_EPISODES = 4        # setup_s and episode_s are medians of at least 4
MIN_FRAMES = 100        # p90 of 100+ frames has 10+ samples beyond it
MIN_TRACE_PAIRS = 2
# No episode starts once the run could not finish it within this budget.
DEADLINE_S = 150.0
# One BLAS/OpenMP thread. With the default, OpenBLAS spins a second thread
# that burns the other core for no speedup, and the child's CPU time, which
# the benchmark reports, would no longer equal its latency. Outputs are
# byte-identical either way.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class BenchmarkBroken(RuntimeError):
    """The benchmark cannot measure this checkout at all."""


def run_child(spec: dict, timeout: float) -> dict:
    """Run one episode in a fresh process and return its record."""
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(HERE / "episode.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": [f"episode exceeded {timeout:.0f} s"]}
    if proc.returncode == 3:
        raise BenchmarkBroken(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    if not record["ok"]:
        sys.stderr.write("\n".join(record["errors"]) + "\n" + proc.stderr[-2000:])
    return record


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 inject_failure: bool = False) -> list:
    """Run episodes of one workload; returns [(untraced, traced or None)]."""
    run_dir = WORK_DIR / f"{name}-seed{seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    episodes = []
    k = 0
    while True:
        elapsed = time.perf_counter() - t0
        timed = sum(len(u.get("frame_ms", ())) for u, _ in episodes)
        enough = (len(episodes) >= (MIN_TRACE_PAIRS if trace else MIN_EPISODES)
                  and (trace or timed >= MIN_FRAMES))
        last = elapsed / k if k else 0.0
        if (enough and elapsed >= seconds) or (k and elapsed + last > DEADLINE_S):
            (run_dir / "records.json").write_text(json.dumps(episodes))
            return episodes
        pair = []
        for traced in ((False, True) if trace else (False,)):
            out = run_dir / f"ep{k}{'-traced' if traced else ''}"
            spec = {"workload": name, "seed": 1000 * seed + k, "trace": traced,
                    "out": str(out), "inject_failure": inject_failure and k == 0}
            pair.append(run_child(spec, DEADLINE_S + 20 - (time.perf_counter() - t0)))
        episodes.append((pair[0], pair[1] if trace else None))
        k += 1


def summarize(episodes: list, trace: bool) -> dict:
    """The run's result object: counts of episodes and the metrics."""
    records = [r for pair in episodes for r in pair if r is not None]
    failed = sum(not r["ok"] for r in records)
    # An episode that failed its check still timed its frames; `correct`
    # carries the failure. One that raised has nothing to report.
    good = [(u, t) for u, t in episodes
            if "episode_s" in u and (t is None or "layers" in t)]
    if not good:
        raise BenchmarkBroken("every episode raised")
    med = statistics.median
    if trace:
        values = {name: med(t["layers"][name] for _, t in good)
                  for name in PER_LAYER if name not in FROM_TWINS}
        values.update(twin_metrics([u for u, _ in good], [t for _, t in good]))
        names = PER_LAYER
    else:
        runs = [u for u, _ in good]
        frame_ms = [f for u in runs for f in u["frame_ms"]]
        values = {
            "setup_s": med(u["setup_s"] for u in runs),
            "episode_s": med(u["episode_s"] for u in runs),
            "frame_ms_p50": med(frame_ms),
            "frame_ms_p90": statistics.quantiles(frame_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": med(u["peak_rss_mb"] for u in runs),
            # Scores vary with the trajectory, not with the host: a mean
            # over episodes spreads less across seeds than a median.
            "iou": statistics.fmean(u["iou"] for u in runs),
            "miou": statistics.fmean(u["miou"] for u in runs),
        }
        names = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": UNITS[k]} for k in names},
        "frames_timed": sum(len(u["frame_ms"]) for u, _ in good),
        "off_cpu": twin_metrics([u for u, _ in good]),
    }


def twin_metrics(untraced: list, traced: list | None = None) -> dict:
    """Medians over the untraced episodes of the figures that describe the
    program rather than the tracer: its off-CPU share and blocking calls,
    and, given the traced twins, the tracer's overhead."""
    med = statistics.median
    out = {
        "cli.off_cpu_frac": med(1.0 - u["episode_s"] / u["wall_episode_s"] for u in untraced),
        "cli.voluntary_waits": med(u["voluntary_waits"] for u in untraced),
    }
    if traced is not None:
        out["trace.overhead_frac"] = med(t["episode_s"] / u["episode_s"] - 1.0
                                         for u, t in zip(untraced, traced))
    return out


def shortfall(result: dict, trace: bool) -> str | None:
    """Why a run stopped by DEADLINE_S falls short of its minimum, or None."""
    episodes = result["attempted"] // (2 if trace else 1)
    if trace:
        if episodes < MIN_TRACE_PAIRS:
            return f"{episodes} traced pairs, fewer than {MIN_TRACE_PAIRS}"
    elif episodes < MIN_EPISODES or result["frames_timed"] < MIN_FRAMES:
        return (f"{episodes} episodes and {result['frames_timed']} frames, fewer "
                f"than {MIN_EPISODES} and {MIN_FRAMES}")
    return None


def print_table(name: str, result: dict) -> None:
    print(f"workload {name}: {result['attempted']} episodes, "
          f"failed_frac {result['failed'] / result['attempted']:.4f} frac")
    for metric, m in result["metrics"].items():
        print(f"  {metric:28s} {m['value']:14.6f} {m['unit']}")
    if "frame_ms_p90" in result["metrics"]:
        n = result["frames_timed"]
        print(f"  frame samples {n}, {n - int(0.9 * n)} beyond p90")
        off = result["off_cpu"]
        print(f"  off-CPU share of the wall-clock episode {off['cli.off_cpu_frac']:.4f} frac, "
              f"blocking calls {off['cli.voluntary_waits']:g} per episode (medians)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", required=True,
                   choices=[w["name"] for w in BENCHMARK["workloads"]])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-failure", action="store_true",
                   help="make the first episode raise, to show it is counted")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "splatmem" / "__init__.py").is_file():
        print(f"no splatmem package under {SRC}", file=sys.stderr)
        return 2

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in args.workload:
            episodes = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                    args.inject_failure)
            result = summarize(episodes, bool(args.trace))
            print_table(name, result)
            short = shortfall(result, bool(args.trace))
            if short:
                # A shortened run would report a p90 with too few samples
                # beyond it as if it were a normal result.
                print(f"workload {name} ran out of time: {short}", file=sys.stderr)
                result["correct"] = False
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = "" if len(args.workload) == 1 else f"{name}."
            combined["metrics"].update(
                {prefix + k: v for k, v in result["metrics"].items()})
    except BenchmarkBroken as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 3
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
