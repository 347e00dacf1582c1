"""End-to-end regression: CLI driver -> synth -> memory -> render -> metrics.

Runs the embodied and the local pipeline on the default scene with 6
frames and a 12 x 16 lift grid. The pinned scores and SHA-256 digests were
recorded before the blocked attention and the loop-free fusion landed;
those rewrites keep every artifact byte for byte.
"""

import hashlib
import struct

import pytest

import splatmem.cli as cli
import splatmem.memory as memory_mod
from splatmem.memory import load_gmem
from splatmem.synth import StubConfig

EMBODIED_IOU = 0.8003755227447299
EMBODIED_MIOU = 0.8522706540419506
EMBODIED_SHA256 = {
    "final.gmem": "fb9f21b99c1766b9f0b0f0488c78ba3424d6947084baaa5408cd5e6a8bf9572c",
    "final_pred.vgrid": "de5792d12c7b3c20fedaece9bcf419c1083c51bbb31ed34c55f5f4e4cae6924f",
    "final_labels.vgrid": "ec1a443f39e0cdb80ef27e73ac2ebc584d1f385db9e380f636329eb934d69c42",
    "metrics.csv": "7a32264c66aa69e9b29ef794e7900e6df04fb879dea3ac34454bb3f270c9e257",
}
LOCAL_IOU = 0.7448166295202844
LOCAL_MIOU = 0.7224730345428553
LOCAL_SHA256 = {
    "metrics.csv": "025a24c1efd091e20513e63d0ebc1d1ba79c694317ce45a76cb5a42bbc7aa0fd",
    "pred_frame_005.vgrid": "ddd366db88952e0db653d27e29973498a07090e2b7d8c1f8e75957455761cbaf",
}


def small_config(out, mode=cli.MODE_EMBODIED, **kwargs):
    return cli.RunConfig(mode=mode, n_frames=6, output_dir=str(out),
                         stub=StubConfig(grid_h=12, grid_w=16), **kwargs)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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

    def merge(kept, kept_cells, new, new_cells, cfg, conf_cfg):
        result = real_merge(kept, kept_cells, new, new_cells, cfg, conf_cfg)
        merges.append(len(new) - len(result[1]))
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

    def test_without_dte_no_encoder_call(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(memory_mod, "dte_step",
                            lambda *a, **k: calls.append(1))
        report = cli.run_embodied(small_config(tmp_path, use_dte=False))
        assert calls == []
        assert 0.0 < report.iou <= 1.0
        load_gmem(tmp_path / "final.gmem")


class TestLocal:
    def test_scores_and_digests_pinned(self, tmp_path):
        report = cli.run_local(small_config(tmp_path, mode=cli.MODE_LOCAL))
        assert report.iou == pytest.approx(LOCAL_IOU, abs=1e-12)
        assert report.miou == pytest.approx(LOCAL_MIOU, abs=1e-12)
        for name, digest in LOCAL_SHA256.items():
            assert sha256(tmp_path / name) == digest


class TestCliExitCodes:
    def test_stats_of_the_run_checkpoint(self, embodied_run, capsys):
        out, _, mem, _ = embodied_run
        assert cli.main(["stats", str(out / "final.gmem")]) == 0
        assert f"count {len(mem)}" in capsys.readouterr().out

    @pytest.mark.parametrize("offset,fmt,value", [
        (20, "<d", 0.0),              # voxel size
        (16, "<I", 0),                # number of classes
        (52, "<f", float("nan")),     # first mean coordinate
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

    def test_unknown_mode_exits_1(self, tmp_path):
        assert cli.main(["run-embodied", "--mode", "nope",
                         "--output-dir", str(tmp_path)]) == 1
