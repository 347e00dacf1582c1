"""End-to-end regression: CLI driver -> synth -> memory -> render -> metrics.

Runs the embodied, the local and the concat-baseline pipeline on the
default scene with 6 frames and a 12 x 16 lift grid. The embodied and
local scores and SHA-256 digests were recorded before the blocked
attention and the loop-free fusion landed, the concat ones before the
batched splatting; those rewrites keep every artifact byte for byte.
The embodied `final.gmem` and `final_pred.vgrid` were re-pinned when the
encoder stopped refining attributes: it had round-tripped opacities
through a clipped logit, which moved them by up to 1e-6. Since then the
embodied run differs from its twin with an identity encoder only in the
feature columns of `final.gmem`. Both `final.gmem` and `final_pred.vgrid`
digests were re-pinned again when `save_gmem` began to keep each float32
mean in its row's cell: 9 embodied and 11 concat means moved by one
float32 step, and the grids by at most 6e-8. The embodied `final.gmem`
digest was re-pinned when the attention took its keys relative to the
first key and base-2 scores: only feature bytes moved. The exit-code
tests also run valid scene files whose frames see nothing, and generated
ones, through all three modes.
"""

import contextlib
import ctypes
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splatmem.attn as attn_mod
import splatmem.cli as cli
import splatmem.memory as memory_mod
import splatmem.synth as synth_mod
from splatmem.grid import load_vgrid
from splatmem.cavf import FusionConfig
from splatmem.core import D_MODEL, PrimitiveBatch, cell_key
from splatmem.errors import InvalidInputError
from splatmem.memory import (_GMEM_HEADER, GaussianMemory, _record_layout, load_gmem,
                             save_gmem)
from splatmem.synth import StubConfig, generate_scene
from test_attn import mha_materialised
from test_splat import full_grid_render

EMBODIED_IOU = 0.8003755227447299
EMBODIED_MIOU = 0.8522706540419506
EMBODIED_SHA256 = {
    "final.gmem": "f5cc3f593516af226987ea63bc55c5b0043ebee876e7fd2aae022c5661d89089",
    "final_pred.vgrid": "42e7ed705cd2b5ed07ecf6303763e5456255b4d477ff70c34707dbd7f3f78a56",
    "final_labels.vgrid": "ec1a443f39e0cdb80ef27e73ac2ebc584d1f385db9e380f636329eb934d69c42",
    "metrics.csv": "7a32264c66aa69e9b29ef794e7900e6df04fb879dea3ac34454bb3f270c9e257",
    "stats.csv": "0e8e48b9a90193d81898e3849a5ea5703f1a46a17a47b201d6b7925e96c61f21",
}
# header plus every record column but the features
EMBODIED_GMEM_NONFEATURE_SHA256 = (
    "53414ebe19de91459e10422caf53039b2d057820727fbcad72fe340002fd61a0")
# Features of a float64-attention run lie 2.4e-7 (one float32 ulp) from the
# float32 ones after 6 frames; the bound leaves 40x headroom.
FEATURE_ATOL_F64_ATTENTION = 1e-5
LOCAL_IOU = 0.7448166295202844
LOCAL_MIOU = 0.7224730345428553
LOCAL_SHA256 = {
    "metrics.csv": "025a24c1efd091e20513e63d0ebc1d1ba79c694317ce45a76cb5a42bbc7aa0fd",
    "pred_frame_000.vgrid": "29dc01d10e6e32df13d8398787e554ce9930e3e4a91e7f8e1dc126709b56021c",
    "pred_frame_001.vgrid": "1d36d1fbdc1a2e6fb2f62447716f176cfe2a94777e9a9cf9b719a7927a111fee",
    "pred_frame_002.vgrid": "3d84a2f8c5903a47fa4cd8cc5ac723017201c856896d2c8ec77b5ff8fe0006a6",
    "pred_frame_003.vgrid": "319021365757e504d3b50e95dd34e49c322bd7f092071d9abab895bcb6f73c50",
    "pred_frame_004.vgrid": "2aa83fcf22c1323e3ec93a656a575978483d6365e7088731491abbef6b883d8f",
    "pred_frame_005.vgrid": "ddd366db88952e0db653d27e29973498a07090e2b7d8c1f8e75957455761cbaf",
}
# `render --labels` of the embodied run's checkpoint, recorded when the
# label grid was still the argmax of a whole probability grid; `--like` its
# run grid gives the run's own final_labels.vgrid
RENDER_LABELS_SHA256 = {
    "derived": "34b9e5bc7cced980695a433b7770d0ee1323cb123ce23ec6a79ce9e4d6c30560",
    "derived_0.13": "d47ea81fb34f1974f674be582c8f0ac231eda66d818c99339af9c28931cc33f0",
    "dims": "8d309021f30377fc82aa0e67ba6ce376335c9887a3f2be5f7027442955211836",
    "like": EMBODIED_SHA256["final_labels.vgrid"],
}

CONCAT_IOU = 0.8027100732912903
CONCAT_MIOU = 0.8484178054006746
CONCAT_SHA256 = {
    "final.gmem": "c58d8a7ac692f6ad0615c0e97e2dfe5eae2c95182a41f89eab55b040ff233f45",
    "final_pred.vgrid": "c3d9ffb9aac49bf4a0789272a7867fd10bdb06c36cc5d8057e5765d6c885c9f3",
    "final_labels.vgrid": "acb6652187b9fc894c785eafe2f967af9dfb4da534d9f21dad38ce32255de025",
    "metrics.csv": "cd01dd1e214f1ec906ac8757fb3b2e5569b631e7c9cdd3976b7ee69f0dcf0ceb",
    "stats.csv": "60ce208d3c925d240a62e13696ccff4347a3778bc2f76df1441f2eafda5bf70b",
}

# a valid scene whose first frames of an 8-frame orbit see nothing
LATE_BOX = "box 4.4 2.0 0.8 4.48 2.8 1.6 2\n"


@st.composite
def scene_files(draw):
    """A valid scene file: a 0.8-3.2 m extent and up to five boxes inside it."""
    extent = [draw(st.floats(0.8, 3.2)) for _ in range(3)]
    lines = ["extent " + " ".join(map(repr, extent))]
    for _ in range(draw(st.integers(0, 5))):
        lo = [draw(st.floats(0.0, 0.9)) for _ in range(3)]
        hi = [a + draw(st.floats(0.05, 1.0 - a)) for a in lo]
        corners = [e * x for part in (lo, hi) for e, x in zip(extent, part)]
        lines.append("box " + " ".join(map(repr, corners))
                     + f" {draw(st.integers(0, 10))}")
    return "\n".join(lines) + "\n"


def small_config(out, mode=cli.MODE_EMBODIED, **kwargs):
    return cli.RunConfig(mode=mode, n_frames=6, output_dir=str(out),
                         stub=StubConfig(grid_h=12, grid_w=16), **kwargs)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gmem_parts(path, n_classes=12, d_model=D_MODEL):
    """A `.gmem` file split into (header and non-feature bytes, features)."""
    raw = path.read_bytes()
    names, widths = zip(*_record_layout(n_classes, d_model))
    rec = np.frombuffer(raw[_GMEM_HEADER.size:], dtype="<f4").reshape(-1, sum(widths))
    start = sum(widths[:names.index("features")])  # features are the last field
    return (raw[:_GMEM_HEADER.size] + rec[:, :start].tobytes(),
            rec[:, start:].astype(np.float64))


def one_row_memory(means, scale, voxel_size=0.12, n_classes=12):
    """A memory of one primitive per mean, of opacity 0.9 and scale `scale`
    on every axis, with fusion cells of `voxel_size`."""
    means = np.asarray(means, dtype=np.float64)
    n = len(means)
    batch = PrimitiveBatch(means, np.full((n, 3), scale), np.tile([1.0, 0, 0, 0], (n, 1)),
                           np.full(n, 0.9), np.zeros((n, n_classes - 1)),
                           np.zeros((n, D_MODEL)))
    return GaussianMemory(batch, FusionConfig(voxel_size))


def artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "timing.csv"}


@pytest.fixture(scope="module")
def embodied_run(tmp_path_factory):
    """One embodied run, the memory it saved, and the collision merges of
    each update."""
    out = tmp_path_factory.mktemp("embodied")
    saved, merges = [], []
    real_save, real_merge = cli.save_gmem, memory_mod._merge_collisions

    def merge(*args):
        result = real_merge(*args)
        merges.append(len(args[1]) - len(result[1]))  # new rows in, new rows kept
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "save_gmem",
                   lambda path, mem: saved.append(mem) or real_save(path, mem))
        mp.setattr(memory_mod, "_merge_collisions", merge)
        report = cli.run_embodied(small_config(out))
    return out, report, saved[0], merges


class TestEmbodied:
    def test_scores_pinned(self, embodied_run):
        _, report, _, _ = embodied_run
        assert report.iou == pytest.approx(EMBODIED_IOU, abs=1e-12)
        assert report.miou == pytest.approx(EMBODIED_MIOU, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(EMBODIED_SHA256))
    def test_artifact_digest_pinned(self, embodied_run, name):
        out, _, _, _ = embodied_run
        assert sha256(out / name) == EMBODIED_SHA256[name]

    def test_checkpoint_outside_the_features_pinned(self, embodied_run):
        out, _, _, _ = embodied_run
        rest, _ = gmem_parts(out / "final.gmem")
        assert hashlib.sha256(rest).hexdigest() == EMBODIED_GMEM_NONFEATURE_SHA256

    def test_attention_precision_reaches_no_scored_artifact(self, embodied_run,
                                                           tmp_path, monkeypatch):
        # The encoder refines only features, so float64 attention must
        # leave every scored byte as it is.
        out, _, _, _ = embodied_run
        monkeypatch.setattr(attn_mod, "mha", mha_materialised)
        cli.run_embodied(small_config(tmp_path))
        for name in ("final_pred.vgrid", "final_labels.vgrid", "metrics.csv",
                     "stats.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
        rest64, feats64 = gmem_parts(tmp_path / "final.gmem")
        rest32, feats32 = gmem_parts(out / "final.gmem")
        assert rest64 == rest32
        np.testing.assert_allclose(feats32, feats64, rtol=0,
                                   atol=FEATURE_ATOL_F64_ATTENTION)

    def test_second_run_is_byte_identical(self, embodied_run, tmp_path):
        out, _, _, _ = embodied_run
        cli.run_embodied(small_config(tmp_path))
        assert artifacts(tmp_path) == artifacts(out)

    def test_collisions_are_merged(self, embodied_run):
        # the pinned digests cover the collision merge only if it runs
        _, _, _, merges = embodied_run
        assert len(merges) == 5 and sum(merges) > 0

    def test_one_primitive_per_cell(self, embodied_run):
        _, _, mem, _ = embodied_run
        mem.check_unique_cells()

    def test_stats_bytes_is_checkpoint_size(self, embodied_run):
        out, _, _, _ = embodied_run
        last = (out / "stats.csv").read_text().splitlines()[-1].split(",")
        assert int(last[3]) == (out / "final.gmem").stat().st_size

    def test_dte_changes_only_the_features(self, embodied_run, tmp_path, monkeypatch):
        # The encoder refines features, and no render, metric or fusion
        # weight reads them, so the run equals its twin with an encoder
        # that returns its inputs everywhere but in the feature columns of
        # the checkpoint, which keep the stub's zeros there.
        out, _, _, _ = embodied_run
        def identity(current, history, *args):
            return current, history
        monkeypatch.setattr(memory_mod, "dte_step", identity)
        monkeypatch.setattr(cli, "dte_step", identity)
        cli.run_embodied(small_config(tmp_path))
        for name in ("final_pred.vgrid", "final_labels.vgrid", "metrics.csv",
                     "stats.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes(), name
        rest, feats = gmem_parts(tmp_path / "final.gmem")
        assert rest == gmem_parts(out / "final.gmem")[0]
        assert not feats.any() and gmem_parts(out / "final.gmem")[1].any()


@pytest.mark.parametrize("mode", [cli.MODE_EMBODIED, cli.MODE_LOCAL])
def test_a_run_voxelizes_its_scene_once(tmp_path, monkeypatch, mode):
    calls = []

    def counted(text):
        calls.append(text)
        return generate_scene(text)
    monkeypatch.setattr(cli, "generate_scene", counted)
    monkeypatch.setattr(synth_mod, "generate_scene", counted)
    cfg = dataclasses.replace(small_config(tmp_path, mode=mode), n_frames=2)
    (cli.run_local if mode == cli.MODE_LOCAL else cli.run_embodied)(cfg)
    assert len(calls) == 1


def test_default_scene_text_in_a_file_runs_the_default_scene(tmp_path, capsys):
    # `--scene default` parses DEFAULT_SCENE, so a file holding that text
    # writes the same bytes
    scene = tmp_path / "default.scene"
    scene.write_text(synth_mod.DEFAULT_SCENE)
    outs = [tmp_path / "from_default", tmp_path / "from_file"]
    for name, out in zip(["default", str(scene)], outs):
        assert cli.main(["run-embodied", "--scene", name, "--frames", "2",
                         "--output-dir", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and printed[0] == printed[1]
    assert len(artifacts(outs[0])) == 6 and artifacts(outs[1]) == artifacts(outs[0])


def test_checkpoint_is_independent_of_the_blas_thread_count(tmp_path):
    # On two BLAS threads a float32 product in the attention rounds
    # differently at the default lift grid. Importing splatmem pins one
    # thread, so the console entry writes the same checkpoint either way.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        subprocess.run([sys.executable, "-m", "splatmem.cli", "run-embodied", "--frames",
                        "10", "--output-dir", str(out)], env=env, check=True,
                       capture_output=True)
        digests.append(sha256(out / "final.gmem"))
    assert digests[0] == digests[1]


@pytest.mark.parametrize("imports,preset,warns", [
    ("numpy, splatmem", None, True),
    ("splatmem, numpy", None, False),
    ("numpy, splatmem", "1", False),
], ids=["numpy_first", "splatmem_first", "numpy_first_pinned"])
def test_importing_after_an_unpinned_numpy_warns(imports, preset, warns):
    # Such a process keeps its BLAS thread count. A child given the variable
    # at start, as the benchmark gives its episodes, loaded numpy pinned.
    # The children start without the thread variables, which importing
    # splatmem has set in this process.
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    err = subprocess.run([sys.executable, "-c", f"import {imports}"], env=env, check=True,
                         capture_output=True, text=True).stderr
    assert ("UserWarning: numpy was imported before splatmem" in err) == warns
    assert warns or err == ""


def blas_threads():
    """Thread count of the OpenBLAS this process loaded, or None where no
    OpenBLAS with a known getter is mapped (or /proc is absent)."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line}) if maps.exists() else []
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    for lib in libs:
        blas = ctypes.CDLL(lib)
        for get in filter(None, (getattr(blas, name, None) for name in getters)):
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def test_importing_the_package_loads_no_numpy():
    # so that tests/conftest.py pins BLAS before anything loads numpy
    code = "import sys, splatmem; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_the_suite_runs_on_one_blas_thread():
    # tests/conftest.py imports splatmem before numpy loads its BLAS, so
    # the in-process runs of this suite follow the command line's pin.
    threads = blas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS thread-count getter in this process")
    assert threads == 1


class TestLongRun:
    def test_70_frames_keep_a_loadable_checkpoint(self, tmp_path):
        # Without the encoder's post-norms the features grow about 4x per
        # frame, and after 70 frames the checkpoint no longer reloads.
        cfg = dataclasses.replace(small_config(tmp_path), n_frames=70)
        report = cli.run_embodied(cfg)
        assert 0.0 < report.iou <= 1.0
        feats = load_gmem(tmp_path / "final.gmem").batch.features
        assert np.all(np.isfinite(feats))
        assert np.abs(feats).max() <= np.sqrt(D_MODEL)


class TestLocal:
    def test_scores_and_digests_pinned(self, tmp_path):
        report = cli.run_local(small_config(tmp_path, mode=cli.MODE_LOCAL))
        assert report.iou == pytest.approx(LOCAL_IOU, abs=1e-12)
        assert report.miou == pytest.approx(LOCAL_MIOU, abs=1e-12)
        for name, digest in LOCAL_SHA256.items():
            assert sha256(tmp_path / name) == digest

    @pytest.mark.parametrize("config,flags", [
        ({"stub": {"grid_h": 12, "grid_w": 16}}, []),
        # flags beat the file's values, at the top level and in a section
        ({"stub": {"grid_h": 12, "grid_w": 16}, "mode": "embodied", "n_frames": 2,
          "noise": {"flip_prob": 0.3}}, ["--flip-prob", "0"]),
    ], ids=["config", "flags-beat-config"])
    def test_subcommand_reproduces_the_digests(self, tmp_path, capsys, config, flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["run-local", "--mode", "local", "--frames", "6",
                         "--config", str(path), "--output-dir", str(out), *flags]) == 0
        for name, digest in LOCAL_SHA256.items():
            assert sha256(out / name) == digest, name
        assert capsys.readouterr().out == f"iou {LOCAL_IOU:.6f} miou {LOCAL_MIOU:.6f}\n"

    def test_subcommand_without_local_mode_exits_1(self, tmp_path, capsys):
        # a mode set by a flag or by the config file is checked, not replaced
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mode": cli.MODE_EMBODIED}))
        out = tmp_path / "out"
        for flags in (["--mode", cli.MODE_EMBODIED], ["--config", str(path)]):
            assert cli.main(["run-local", *flags, "--frames", "2",
                             "--output-dir", str(out)]) == 1
            assert "this run takes mode 'local'" in capsys.readouterr().err
            assert not out.exists()

    def test_subcommand_supplies_local_mode(self, tmp_path, capsys):
        # where neither a flag nor the config file sets the mode
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_frames": 1}))
        out = tmp_path / "out"
        assert cli.main(["run-local", "--config", str(path), "--output-dir", str(out)]) == 0
        assert (out / "report.txt").read_text().startswith("mode local\n")


class TestConcatBaseline:
    """The append-only baseline: its final render has the most overlapping
    primitives, so it is the strongest check of the splat scatter order."""

    def test_scores_and_digests_pinned(self, tmp_path):
        report = cli.run_embodied(small_config(tmp_path, mode=cli.MODE_CONCAT))
        assert report.iou == pytest.approx(CONCAT_IOU, abs=1e-12)
        assert report.miou == pytest.approx(CONCAT_MIOU, abs=1e-12)
        for name, digest in CONCAT_SHA256.items():
            assert sha256(tmp_path / name) == digest, name


def duplicate_cells(memory):
    """Rows of a memory less the distinct cells of their means."""
    keys = cell_key(memory.batch.means, memory.fusion.voxel_size)
    return len(keys) - len(np.unique(keys))


def recording_update(dupes):
    """`cli.update`, appending the memory's duplicate cells after each call."""
    real_update = cli.update

    def update(memory, *args):
        inside = real_update(memory, *args)
        dupes.append(duplicate_cells(memory))
        return inside
    return update


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """The output directories of the default embodied and concat runs, and
    the duplicate cells of the embodied memory after each update."""
    dupes, outs = [], {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "update", recording_update(dupes))
        for mode in (cli.MODE_EMBODIED, cli.MODE_CONCAT):
            outs[mode] = tmp_path_factory.mktemp(mode)
            cli.run_embodied(cli.RunConfig(mode=mode, output_dir=str(outs[mode])))
    return outs, dupes


class TestOneRowPerCell:
    """A row's fusion cell is the cell of its mean, so the memory holds one
    row per cell after every update and after a checkpoint round trip."""

    def test_every_update_of_the_default_run(self, default_runs):
        # rounding in fuse can carry a mean across a cell face: in this
        # run, in update 26
        _, dupes = default_runs
        assert dupes == [0] * 29

    def test_the_default_run_checkpoint_reloads_one_row_per_cell(self, default_runs):
        # the float32 cast can carry a mean across a cell face: in this
        # run, 57 of them
        outs, _ = default_runs
        mem = load_gmem(outs[cli.MODE_EMBODIED] / "final.gmem")
        assert (len(mem), duplicate_cells(mem)) == (5073, 0)

    def test_every_update_of_a_noisy_run(self, tmp_path, monkeypatch):
        dupes = []
        monkeypatch.setattr(cli, "update", recording_update(dupes))
        config = tmp_path / "grid.json"
        config.write_text('{"stub": {"grid_h": 12, "grid_w": 16}}')
        assert cli.main(["run-embodied", "--config", str(config), "--frames", "8",
                         "--depth-sigma", "0.05", "--output-dir", str(tmp_path)]) == 0
        assert dupes == [0] * 7
        assert duplicate_cells(load_gmem(tmp_path / "final.gmem")) == 0


# Scene files whose second line holds a record with a value too many, or
# one of the single records a second time.
LINE_2_ERRORS = {
    "extra_extent_value": b"voxel_size 0.08\nextent 1.6 1.6 0.96 2\n",
    "extra_box_value": b"extent 1.6 1.6 0.96\nbox 0 0 0 1.6 1.6 0.08 1 2\n",
    "extra_voxel_size_value": b"extent 1.6 1.6 0.96\nvoxel_size 0.08 0.5\n",
    "extra_classes_value": b"extent 1.6 1.6 0.96\nclasses 12 3\n",
    "repeated_extent": b"extent 1.6 1.6 0.96\nextent 3.2 3.2 0.96\n",
    "repeated_voxel_size": b"voxel_size 0.08\nvoxel_size 0.1\nextent 1.6 1.6 0.96\n",
    "repeated_classes": b"classes 12\nclasses 12\nextent 1.6 1.6 0.96\n",
}


class TestCliExitCodes:
    def test_stats_of_the_run_checkpoint(self, default_runs, capsys):
        outs, _ = default_runs
        # the baseline keeps every row, in the cells the fused memory holds
        for mode, rows, cells in ((cli.MODE_EMBODIED, 5073, 5073),
                                  (cli.MODE_CONCAT, 31635, 5073)):
            assert cli.main(["stats", str(outs[mode] / "final.gmem")]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0] == f"count {rows}"
            assert lines[2:4] == [f"cells {cells}", f"duplicate_cells {rows - cells}"]

    @pytest.mark.parametrize("offset,fmt,value", [
        (20, "<d", 0.0),              # voxel size
        (16, "<I", 0),                # number of classes
        (36, "<d", 0.05),             # origin y: cells are anchored at (0, 0, 0)
        (52, "<f", float("nan")),     # first mean coordinate
        (64, "<f", -0.05),            # first scale
        (64, "<f", 0.0),
        (92, "<f", 7.0),              # first opacity
        (92, "<f", -0.5),
        (76, "<f", 3.0),              # first quaternion component
        (52, "<f", 125830.0),         # a mean 2^20 cells out at the 0.12 m cell
        (56, "<f", -125830.0),
        (52, "<f", 1e30),             # past int64 in cells
        (52, "<I", 0x7fa00000),       # a signalling NaN
    ])
    def test_malformed_checkpoint_exits_2(self, embodied_run, tmp_path, offset,
                                          fmt, value):
        out, _, _, _ = embodied_run
        raw = bytearray((out / "final.gmem").read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        bad = tmp_path / "bad.gmem"
        bad.write_bytes(bytes(raw))
        assert cli.main(["stats", str(bad)]) == 2
        assert cli.main(["render", str(bad), str(tmp_path / "o.vgrid")]) == 2

    @pytest.mark.parametrize("argv", [
        ["fuse", "--voxel-size", "0"],
        ["fuse", "--voxel-size", "-0.1"],
        ["fuse", "--voxel-size", "nan"],
        ["fuse", "--voxel-size", "inf"],
        # a flag that no longer exists, whatever its value
        ["fuse", "--temperature", "1"],
        ["fuse", "--temperature", "0"],
        ["fuse", "--temperature", "-1"],
        ["render", "--voxel-size", "0"],
        ["render", "--voxel-size", "-0.08"],
        ["render", "--voxel-size", "inf"],
        ["render", "--dims", "4", "4", "4", "--voxel-size", "0"],
        ["render", "--dims", "0", "4", "4", "--voxel-size", "0.1"],
        # flags that the chosen geometry would not read
        ["render", "--origin", "0", "0", "0"],
        ["render", "--origin", "0", "0", "0", "--voxel-size", "0.08"],
        ["render", "--like", "{out}/final_pred.vgrid", "--dims", "4", "4", "4",
         "--voxel-size", "0.08"],
        ["render", "--like", "{out}/final_pred.vgrid", "--voxel-size", "0.08"],
        # a grid that fails grid.check_geometry; the element count of the
        # last one overflows intp, so it cannot be allocated
        ["render", "--dims", "2", "2", "2", "--voxel-size", "0.1", "--origin", "nan", "0", "0"],
        ["render", "--dims", "2", "2", "2", "--voxel-size", "0.1", "--origin", "0", "inf", "0"],
        ["render", "--dims", "2", "2", "2", "--voxel-size", "nan"],
        ["render", "--dims", "3000000", "3000000", "3000000", "--voxel-size", "0.1"],
        # voxel centres 0.1 m apart coincide at 1.35e17 m, where the step is 16 m
        ["render", "--dims", "5", "4", "3", "--voxel-size", "0.1", "--origin", "1.35e17", "0",
         "0"],
    ], ids=" ".join)
    def test_invalid_knob_exits_1(self, embodied_run, tmp_path, capsys, argv):
        # a flag value is honoured or rejected, never replaced by a default
        out, _, _, _ = embodied_run
        command, *flags = (a.format(out=out) for a in argv)
        dst = tmp_path / "o"
        assert cli.main([command, str(out / "final.gmem"), str(dst), *flags]) == 1
        assert "config error" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("argv", [
        ["run-embodied"],
        ["run-embodied", "--mode", "embodied-concat-baseline"],
        ["run-local", "--mode", "local"],
    ], ids=" ".join)
    def test_voxel_size_past_the_key_range_exits_3(self, tmp_path, capsys, argv):
        # at 1e-7 m a key reaches 0.1 m, and the scene spans metres
        assert cli.main([*argv, "--fusion-voxel-size", "1e-7", "--frames", "1",
                         "--output-dir", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "cell size 1e-07 m" in err and "2^20 cells (0.104858 m)" in err
        assert not (tmp_path / "out" / "final.gmem").exists()

    def test_derived_grid_past_the_bound_exits_1(self, tmp_path, capsys):
        # Means 1e15 m apart lie within the key range of 1e12 m cells, and
        # the derived grid at 0.08 m spans 1.25e16 voxels a side, a count
        # that overflows intp.
        path = tmp_path / "far.gmem"
        save_gmem(path, one_row_memory([[0.0] * 3, [1e15] * 3], 0.05, voxel_size=1e12))
        dst = tmp_path / "o.vgrid"
        assert cli.main(["render", str(path), str(dst)]) == 1
        assert "exceed" in capsys.readouterr().err
        assert not dst.exists()

    @pytest.mark.parametrize("scale", [1e20, float(np.finfo(np.float32).max)],
                             ids=["1e20", "float32_max"])
    def test_render_of_a_primitive_wider_than_the_grid(self, tmp_path, scale):
        # a scale that float32 stores is valid, and covers the whole grid
        path = tmp_path / "wide.gmem"
        save_gmem(path, one_row_memory([[0.1, 0.2, 0.3]], scale))
        opacity = load_gmem(path).batch.opacities[0]
        got = tmp_path / "o.vgrid"
        assert cli.main(["render", str(path), str(got), "--dims", "5", "4", "3",
                         "--voxel-size", "0.1", "--origin", "-0.2", "0", "0.05"]) == 0
        empty = load_vgrid(got).values[..., -1]
        assert np.all(empty == np.float32(1.0 - opacity))

    def test_fuse_past_the_key_range_exits_3(self, embodied_run, tmp_path, capsys):
        out, _, _, _ = embodied_run
        dst = tmp_path / "f.gmem"
        assert cli.main(["fuse", str(out / "final.gmem"), str(dst),
                         "--voxel-size", "1e-7"]) == 3
        assert "cell size 1e-07 m" in capsys.readouterr().err
        assert not dst.exists()

    def test_scene_with_no_boxes_exits_0(self, tmp_path, capsys):
        # no frame sees a primitive, so the memory stays empty: a header alone
        scene = tmp_path / "empty.scene"
        scene.write_text("extent 1.6 1.6 0.96\n")
        out = tmp_path / "out"
        assert cli.main(["run-embodied", "--scene", str(scene), "--frames", "2",
                         "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == "iou 1.000000 miou nan\n"
        assert (out / "final.gmem").stat().st_size == _GMEM_HEADER.size == 52
        assert cli.main(["stats", str(out / "final.gmem")]) == 0
        assert capsys.readouterr().out == "count 0\nbytes 52\ncells 0\nduplicate_cells 0\n"
        assert cli.main(["fuse", str(out / "final.gmem"), str(tmp_path / "f.gmem")]) == 0
        assert (tmp_path / "f.gmem").read_bytes() == (out / "final.gmem").read_bytes()

    @pytest.mark.parametrize("scene,argv,printed", [
        ("", ["run-embodied"], "iou 1.000000 miou nan"),
        ("", ["run-embodied", "--mode", cli.MODE_CONCAT], "iou 1.000000 miou nan"),
        # no frame has a class to score: the mean mIoU is NaN, without a warning
        ("", ["run-local", "--mode", cli.MODE_LOCAL], "iou 1.000000 miou nan"),
        # a box that only the later frames see
        (LATE_BOX, ["run-embodied"], "iou 0.793651 miou 0.793651"),
        (LATE_BOX, ["run-embodied", "--mode", cli.MODE_CONCAT],
         "iou 0.714286 miou 0.714286"),
        (LATE_BOX, ["run-local", "--mode", cli.MODE_LOCAL], "iou 0.972477 miou 0.926606"),
    ], ids=["empty-embodied", "empty-concat", "empty-local",
            "late_box-embodied", "late_box-concat", "late_box-local"])
    def test_frames_that_see_nothing_exit_0(self, tmp_path, capsys, scene, argv,
                                            printed):
        path = tmp_path / "s.scene"
        path.write_text("extent 4.8 4.8 2.88\n" + scene)
        assert cli.main([*argv, "--scene", str(path), "--frames", "8",
                         "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out == printed + "\n"

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(scene_files(), st.integers(1, 3))
    def test_generated_scene_files_run_or_exit_1(self, text, frames):
        # an empty view or a blocked orbit is valid input, never an internal error
        with tempfile.TemporaryDirectory() as tmp:
            scene, config = Path(tmp, "s.scene"), Path(tmp, "run.json")
            scene.write_text(text)
            config.write_text(json.dumps({"stub": {"grid_h": 6, "grid_w": 8}}))
            for argv in (["run-embodied"], ["run-embodied", "--mode", cli.MODE_CONCAT],
                         ["run-local", "--mode", cli.MODE_LOCAL]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([*argv, "--scene", str(scene), "--config", str(config),
                                     "--frames", str(frames),
                                     "--output-dir", str(Path(tmp, "out"))])
                assert code == 0 or (code == 1 and err.getvalue().startswith(
                    f"config error: scene file {scene}: ")), (argv, err.getvalue())

    @pytest.mark.parametrize("kwargs", [
        {"mode": "nope"}, {"n_frames": 0}, {"trajectory_seed": -1}, {"stub_seed": -1},
    ], ids=lambda k: json.dumps(k))
    def test_run_config_built_in_code_is_checked(self, kwargs):
        with pytest.raises(InvalidInputError):
            cli.RunConfig(**kwargs)

    def test_unknown_mode_exits_1(self, tmp_path):
        assert cli.main(["run-embodied", "--mode", "nope",
                         "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize("config,flags", [
        ({"trajectory_seed": -1}, []),
        # a bad value in the file, although a flag replaces it
        ({"n_frames": 0}, []),
        ({"mode": "nope"}, ["--mode", "embodied"]),
        ({"noise": {"depth_sigma": float("nan")}}, []),
        ({"noise": {"logit_noise": -1.0}}, []),
        ({"noise": {"flip_prob": -1.0}}, []),
        ({}, ["--flip-prob", "nan"]),
        ({"noise": 5}, ["--flip-prob", "0.1"]),
        ({"stub": {"grid_h": 0}}, []),
        ({"fusion": {"voxel_size": float("inf")}}, []),
        ({}, ["--fusion-voxel-size", "inf"]),
        # keys and flags of settings that no longer exist: refused whatever
        # the value, valid ones included
        ({"fusion": {"temperature": 0.5}}, []),
        ({}, ["--fusion-temperature", "0.5"]),
        ({"encoder": {"seed": 1}}, []),
        ({}, ["--encoder-seed", "7"]),
        ({"encoder": {"n_blocks": 2}}, []),
        ({}, ["--n-blocks", "2"]),
        ({"encoder": {"d_model": 30}}, []),
        ({}, ["--n-blocks", "0"]),
        ({"encoder": {"seed": -1}}, []),
        ({"encoder": {"n_heads": 5}}, []),
        ({"encoder": {"d_ff": 0}}, []),
        ({"confidence": {"h_max": float("nan")}}, []),
        ({"confidence": {"sharpness": 3.0}}, []),
        ({"stub": {"spill_margin": 0.0}}, []),
        ({"stub": {"tangent_scale_max": float("nan")}}, []),
        ({"stub": {"normal_scale": -1.0}}, []),
        ({"stub": {"tangent_scale_min": 0.3}}, []),
        ({"stub": {"mean_centering": float("nan")}}, []),
        ({"stub": {"surface_extent_reach": 0}}, []),
        ({"stub": {"footprint_gain": 1.2}}, []),
        ({"stub": {"logit_magnitude": 1e39}}, []),
        ({"confidence": {"transform": "power"}}, []),
        ({"confidence": {"sigmoid_beta": 10.0}}, []),
        ({"confidence": {"sigmoid_gamma": 1.5}}, []),
        ({"fusion": {"grid_origin_policy": "world_zero"}}, []),
        ({"stub": {"feature_dim": 32}}, []),
        ({"encoder": {"zero_refinement": True}}, []),
        ({"encoder": {"d_model": 16}}, []),
        ({"use_dte": False}, []),
        # values of the wrong JSON type
        ({"encoder": {"d_model": 16.0}}, []),
        ({"encoder": {"n_blocks": True}}, []),
        ({"use_dte": "no"}, []),
        ({"n_frames": 3.0}, []),
        ({"noise": {"depth_sigma": True}}, []),
        ({"scene": 1}, []),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else " ".join(v))
    def test_bad_config_value_exits_1_before_the_run(self, tmp_path, capsys, config,
                                                      flags):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert cli.main(["run-embodied", "--config", str(path), "--frames", "3",
                         "--output-dir", str(out), *flags]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        b"extent 1.6 1.6\n",
        b"extent nan nan nan\n",
        b"extent 1.6 1.6 inf\n",
        b"extent 1.6 1.6 0.96\nvoxel_size nan\n",
        b"extent 1.6 1.6 0.96\nvoxel_size inf\n",
        b"extent 1.6 1.6 0.96\nbox 0 0 0 1.6 1.6 0.08 1.7\n",
        b"extent 1.6 1.6 0.96\nbox nan 0 0 1.6 1.6 0.08 1\n",
        b"extent 1.6 1.6 0.96\nseed 7\n",
        b"extent 1.6 1.6 0.96 # \xff\n",
        None,
        b"extent 1.6 1.6 0.96\nclasses 0\n",
        b"extent 1.6 1.6 0.96\nclasses 70000\n",
        b"extent 0.01 0.01 0.01\n",
        b"extent 1.6 1.6 0.96\nvoxel_size 10\n",
        b"extent 1.6 1.6 0.96\nvoxel_size 1e-9\n",
        b"extent 1e300 1e300 1e300\nvoxel_size 1e-10\n",
        b"extent 1.6 1.6 0.96\nbox 0 0 0 1.6 1.6 0.8 1\n",
        *LINE_2_ERRORS.values(),
    ], ids=["two_extents", "nan_extent", "inf_extent", "nan_voxel_size", "inf_voxel_size",
            "fractional_class", "nan_box", "seed", "not_utf8", "directory",
            "no_classes", "classes_past_uint16", "extent_under_a_voxel",
            "voxel_past_the_extent", "grid_past_the_size_limit", "grid_past_float_range",
            "orbit_blocked", *LINE_2_ERRORS])
    def test_malformed_scene_file_exits_1(self, tmp_path, capsys, text):
        scene = tmp_path / "s.scene"
        if text is None:
            scene.mkdir()
        else:
            scene.write_bytes(text)
        out = tmp_path / "out"
        assert cli.main(["run-embodied", "--scene", str(scene), "--frames", "2",
                         "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: scene file {scene}: ")
        assert err.count("\n") == 1
        if text in LINE_2_ERRORS.values():
            assert err.startswith(f"config error: scene file {scene}: scene spec line 2: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["stats", "{dir}"],
        ["run-embodied", "--config", "{dir}"],
        ["run-embodied", "--frames", "1", "--output-dir", "{file}"],
    ], ids=["stats_of_a_directory", "config_directory", "output_dir_is_a_file"])
    def test_os_error_exits_1(self, tmp_path, capsys, argv):
        (tmp_path / "d").mkdir()
        (tmp_path / "f").write_text("")
        argv = [a.format(dir=tmp_path / "d", file=tmp_path / "f") for a in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1

    def test_config_file_not_utf8_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_bytes(b'{"n_frames": 2} \xff')
        assert cli.main(["run-embodied", "--config", str(path),
                         "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config file {path}")
        assert not (tmp_path / "out").exists()

    def test_confidence_normalize_is_rejected(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"confidence": {"normalize": "softmax"}}))
        assert cli.main(["run-embodied", "--config", str(config),
                         "--output-dir", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("header", [
        {"dims": (0, 2, 2)},
        {"voxel_size": 0.0},
        {"voxel_size": -0.1},
        {"voxel_size": float("nan")},
        {"voxel_size": float("inf")},
        {"origin": (float("nan"), 0.0, 0.0)},
        {"origin": (1.35e17, 0.0, 0.0)},
        {"num_classes": 0},
        {"num_classes": 1},
        {"fill": float("nan")},
        {"fill": float("inf")},
        {"mode": 1, "fill": 12},
    ], ids=lambda h: ",".join(f"{k}={v}" for k, v in h.items()))
    def test_malformed_vgrid_exits_2(self, embodied_run, tmp_path, header):
        out, _, _, _ = embodied_run
        bad = tmp_path / "bad.vgrid"
        bad.write_bytes(vgrid_bytes(**header))
        assert cli.main(["render", str(out / "final.gmem"), str(tmp_path / "o.vgrid"),
                         "--like", str(bad)]) == 2


def vgrid_bytes(mode=0, num_classes=12, dims=(2, 2, 2), origin=(0.0, 0.0, 0.0),
                voxel_size=0.08, fill=None):
    """A `.vgrid` file whose payload size matches its header."""
    n = dims[0] * dims[1] * dims[2]
    if mode == 0:
        payload = np.full(n * num_classes, 1.0 / max(num_classes, 1) if fill is None
                          else fill, dtype="<f4")
    else:
        payload = np.full(n, num_classes - 1 if fill is None else fill, dtype="<u2")
    header = struct.pack("<4sIBI3I3dd", b"VGRD", 1, mode, num_classes, *dims,
                         *origin, voxel_size)
    return header + payload.tobytes()


class TestCliContract:
    @pytest.mark.parametrize("flags,artifact", [
        ([], "final_pred.vgrid"),
        (["--labels"], "final_labels.vgrid"),
    ])
    def test_render_like_reproduces_the_run_grid(self, embodied_run, tmp_path,
                                                  flags, artifact):
        out, _, _, _ = embodied_run
        got = tmp_path / "o.vgrid"
        assert cli.main(["render", str(out / "final.gmem"), str(got),
                         "--like", str(out / "final_pred.vgrid"), *flags]) == 0
        assert got.read_bytes() == (out / artifact).read_bytes()

    @pytest.mark.parametrize("grid,flags", [
        ("derived", []),
        ("derived_0.13", ["--voxel-size", "0.13"]),
        ("dims", ["--dims", "30", "31", "17", "--voxel-size", "0.09",
                  "--origin", "0.3", "-0.2", "0.01"]),
        ("like", ["--like", "{out}/final_pred.vgrid"]),
    ])
    def test_render_labels_keeps_its_bytes(self, embodied_run, tmp_path, grid, flags):
        out, _, _, _ = embodied_run
        got = tmp_path / "o.vgrid"
        assert cli.main(["render", str(out / "final.gmem"), str(got), "--labels",
                         *(f.format(out=out) for f in flags)]) == 0
        assert sha256(got) == RENDER_LABELS_SHA256[grid]

    def test_render_at_a_half_voxel_origin(self, embodied_run, tmp_path):
        # voxel centres on cell faces, where neighbouring blocks share a voxel
        out, _, _, _ = embodied_run
        got = tmp_path / "o.vgrid"
        assert cli.main(["render", str(out / "final.gmem"), str(got), "--dims", "30", "30",
                         "18", "--voxel-size", "0.08", "--origin", "0.04", "0.04", "0.04"]) == 0
        grid = load_vgrid(got)
        want = full_grid_render(grid, load_gmem(out / "final.gmem").batch)
        assert np.array_equal(grid.values, want.astype(np.float32))

    def test_a_16_wide_checkpoint_passes_stats_render_and_fuse(self, embodied_run,
                                                                tmp_path, capsys):
        # The header records the feature width, so a checkpoint of another
        # width than the encoder's is valid input to every file command.
        out, _, _, _ = embodied_run
        mem = load_gmem(out / "final.gmem")
        mem.batch = dataclasses.replace(mem.batch, features=mem.batch.features[:, :16])
        path = tmp_path / "w16.gmem"
        save_gmem(path, mem)
        assert _GMEM_HEADER.unpack_from(path.read_bytes())[3] == 16
        assert cli.main(["stats", str(path)]) == 0
        assert f"bytes {path.stat().st_size}\n" in capsys.readouterr().out
        # the render reads no feature, so it gives the run's grid
        got = tmp_path / "o.vgrid"
        assert cli.main(["render", str(path), str(got),
                         "--like", str(out / "final_pred.vgrid")]) == 0
        assert got.read_bytes() == (out / "final_pred.vgrid").read_bytes()
        assert cli.main(["fuse", str(path), str(tmp_path / "f.gmem")]) == 0
        assert load_gmem(tmp_path / "f.gmem").batch.features.shape == (919, 16)

    def test_fuse_leaves_one_row_per_cell(self, embodied_run, tmp_path):
        # the checkpoint already holds one row per cell, so at the run's
        # cell size fuse keeps every row, in key order
        out, _, _, _ = embodied_run
        before = load_gmem(out / "final.gmem")
        assert cli.main(["fuse", str(out / "final.gmem"), str(tmp_path / "f.gmem")]) == 0
        after = load_gmem(tmp_path / "f.gmem")
        order = np.argsort(before.cells)
        assert np.array_equal(after.cells, before.cells[order])
        assert np.array_equal(after.batch.means, before.batch.means[order])
