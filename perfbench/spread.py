"""Measure the benchmark's run-to-run spread, the evidence for its bounds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py

Runs ``run.py --trace 0`` once per (set, seed, workload), for two sets of
ten seeds (1-10, then 11-20) and every workload in BENCHMARK.json. The
sets run one after another, and within a set the workloads take turns per
seed, so that a slow spell of the host lands on every workload alike. For
each set and end-to-end metric it reports the median and the quartile
spread (Q3 - Q1) / median, with Python's ``statistics.quantiles(values,
n=4)``; between the sets, the shift of the second median against the
first, as a share of the first, signed so that positive is worse. The
result is written to perfbench/spread.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import BENCHMARK, WORK_DIR  # noqa: E402

SEEDS = 10
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    # The off-CPU figures of every episode, the evidence for WAIT_LIMIT.
    records = json.loads((WORK_DIR / f"{workload}-seed{seed}" / "records.json").read_text())
    result["max_voluntary_waits"] = max(u["voluntary_waits"] for u, _ in records)
    result["max_off_cpu_frac"] = max(1.0 - u["episode_s"] / u["wall_episode_s"]
                                     for u, _ in records)
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main() -> int:
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    better = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}

    raw: dict = {w: [] for w in workloads}
    for s in (0, 1):
        for i in range(SEEDS):
            seed = FIRST_SEED + s * SEEDS + i
            for w in workloads:
                r = one_run(w, seed, BENCHMARK["run_seconds"])
                raw[w].append({"set": s, "seed": seed, "wall_s": r["wall_s"],
                               "correct": r["correct"],
                               "max_voluntary_waits": r["max_voluntary_waits"],
                               "max_off_cpu_frac": r["max_off_cpu_frac"],
                               **{k: v["value"] for k, v in r["metrics"].items()}})
                print(f"set {s} seed {seed} {w}: {r['wall_s']:.1f} s wall, "
                      f"episode_s {r['metrics']['episode_s']['value']:.3f}", flush=True)

    report: dict = {"runs": raw, "summary": {}}
    for w, rows in raw.items():
        summary = report["summary"][w] = {}
        for name, direction in better.items():
            (m0, q0), (m1, q1) = (spread([r[name] for r in rows if r["set"] == s])
                                  for s in (0, 1))
            sign = 1.0 if direction == "lower" else -1.0
            entry = {"median": [m0, m1], "iqr_frac": [q0, q1],
                     "shift_frac": sign * (m1 - m0) / m0}
            summary[name] = entry
            print(f"{w:9s} {name:14s} median {entry['median']} "
                  f"iqr_frac {[round(q0, 4), round(q1, 4)]} "
                  f"shift {entry['shift_frac']:+.4f}")
    (HERE / "spread.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
