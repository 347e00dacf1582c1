"""Tests of the benchmark itself: the tracer, the episode check, the
failure count and the shape of the result, on short episodes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import episode  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMOKE_FRAMES = 3


def _toy_module():
    mod = types.ModuleType("toy")
    mod.inner = lambda x: x * 5
    mod.outer = lambda x: mod.inner(x) + 1
    return mod


def test_hook_on_missing_function_fails_by_name():
    t = tracer.Tracer()
    mod = _toy_module()
    with pytest.raises(tracer.HookMissing, match=r"toy\.gone"):
        t.hook(mod, "gone", "toy.gone")
    with pytest.raises(tracer.HookMissing, match=r"toy\.gone"):
        t.wrap(mod, "gone", lambda orig: orig)


def test_spans_nest_and_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))
    mod = _toy_module()
    inner = mod.inner
    t.hook(mod, "inner", "toy.inner", counts=lambda a, r: {"toy.out": r})
    t.hook(mod, "outer", "toy.outer")
    t.frame = 2
    assert mod.outer(1) == 6
    outer_span, inner_span = t.spans
    assert (inner_span.parent, inner_span.frame) == (0, 2)
    seconds, calls, counts = tracer.summarize_spans(t.spans)
    assert seconds == {"toy.outer": 8.0, "toy.inner": 2.0}
    assert dict(calls) == {"toy.outer": 1, "toy.inner": 1}
    assert counts["toy.out"] == 5
    assert tracer.covered_seconds(t.spans, 5.0, 10.0) == 5.0
    t.uninstall()
    assert mod.inner is inner


def test_removed_layer_function_stops_the_episode_by_name(monkeypatch, capsys, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from splatmem import cli, memory

    monkeypatch.delattr(memory, "fuse")
    stub_predict = cli.stub_predict
    spec = {"workload": "embodied", "seed": 0, "trace": True,
            "out": str(tmp_path), "frames": SMOKE_FRAMES}
    assert episode.main(["episode.py", json.dumps(spec)]) == 3
    assert "splatmem.memory.fuse" in capsys.readouterr().err
    assert cli.stub_predict is stub_predict


def test_blocking_calls_fail_the_episode(monkeypatch, tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import time

    from splatmem import cli

    predict = cli.stub_predict
    sleeps = 60

    def blocking_predict(*args, **kwargs):
        for _ in range(sleeps):
            time.sleep(0.0005)
        return predict(*args, **kwargs)

    monkeypatch.setattr(cli, "stub_predict", blocking_predict)
    monkeypatch.setattr(episode, "WAIT_LIMIT", sleeps)
    record = episode.run_episode({"workload": "concat", "seed": 1, "trace": False,
                                  "out": str(tmp_path), "frames": SMOKE_FRAMES})
    # The sleeps of the first frame start before the episode's count does.
    assert record["voluntary_waits"] >= (SMOKE_FRAMES - 1) * sleeps
    assert record["wall_episode_s"] > record["episode_s"]
    assert not record["ok"] and any("blocked" in e for e in record["errors"])


def test_run_cut_short_by_the_deadline_is_not_correct(monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "DEADLINE_S", 1.0)
    assert run.main(["--workload", "concat", "--seed", "1", "--seconds", "1"]) == 0
    out, err = capsys.readouterr()
    result = json.loads(out.strip().splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 0)
    assert "ran out of time" in err


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Untraced and traced records of a short episode of each workload."""
    base = tmp_path_factory.mktemp("smoke")
    done: dict = {}

    def get(workload):
        if workload not in done:
            done[workload] = tuple(
                run.run_child({"workload": workload, "seed": 0, "trace": traced,
                               "out": str(base / f"{workload}-{traced}"),
                               "frames": SMOKE_FRAMES}, timeout=120)
                for traced in (False, True))
        return done[workload]
    return get, base


@pytest.mark.parametrize("workload", [w["name"] for w in episode.BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(smoke, workload):
    get, _ = smoke
    untraced, traced = get(workload)
    assert untraced["ok"] and traced["ok"], (untraced, traced)
    assert len(untraced["frame_ms"]) == SMOKE_FRAMES
    assert untraced["setup_s"] > 0 and untraced["episode_s"] > 0

    assert untraced["voluntary_waits"] <= episode.WAIT_LIMIT
    assert untraced["wall_episode_s"] > 0

    plain = run.summarize([(untraced, None)], trace=False)
    assert list(plain["metrics"]) == run.END_TO_END
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (True, 1, 0)

    layers = run.summarize([(untraced, traced)], trace=True)["metrics"]
    assert list(layers) == episode.PER_LAYER
    value = {k: v["value"] for k, v in layers.items()}
    assert value["synth.stub_predict.calls"] == SMOKE_FRAMES
    assert 0.9 < value["trace.coverage_frac"] <= 1.0
    attention = ("attn.dte_step.calls", "attn.mha.calls", "attn.score_elems",
                 "cavf.fuse.calls", "cavf.rows_in")
    if workload == "concat":
        assert all(value[k] == 0 for k in attention)
        assert value["splat.render.calls"] == 1
    else:
        assert all(value[k] > 0 for k in attention)
    if workload == "embodied":
        assert value["memory.update.calls"] == SMOKE_FRAMES - 1
        assert value["memory.rows_final"] == value["splat.primitives_in"]


def test_injected_failure_is_counted(smoke, tmp_path):
    get, _ = smoke
    good, _ = get("concat")
    bad = run.run_child({"workload": "concat", "seed": 0, "trace": False,
                         "out": str(tmp_path), "frames": SMOKE_FRAMES,
                         "inject_failure": True}, timeout=120)
    assert not bad["ok"] and "InjectedFailure" in bad["errors"][0]
    result = run.summarize([(bad, None), (good, None)], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_check_catches_bad_grid_and_duplicate_cells(smoke, tmp_path):
    get, base = smoke
    get("concat")
    from splatmem.grid import load_vgrid, save_vgrid
    from splatmem.memory import load_gmem

    src = base / "concat-False"
    grid = load_vgrid(src / "final_pred.vgrid")
    grid.values *= 2.0
    save_vgrid(tmp_path / "final_pred.vgrid", grid)
    score = types.SimpleNamespace(iou=0.5, miou=0.5)
    # The concatenation baseline keeps one row per observation, so its
    # checkpoint holds many rows per cell: a memory the check must reject.
    dupes = load_gmem(src / "final.gmem")
    errors = episode.check_episode("embodied", 0, SMOKE_FRAMES, score, tmp_path, dupes)
    assert any("channel sums" in e for e in errors)
    assert any("more than one primitive per cell" in e for e in errors)


def test_reference_score_is_checked_on_the_default_seed(tmp_path):
    score = types.SimpleNamespace(iou=0.5, miou=0.5)
    errors = episode.check_episode("concat", 0, episode.FRAMES, score, tmp_path, None)
    assert any("reference" in e for e in errors)


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "embodied", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
