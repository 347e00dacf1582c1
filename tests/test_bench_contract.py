"""The benchmark reads the program through names: `perfbench/episode.py`
hooks functions by module and attribute, binds their arguments by
parameter name, and counts the duplicate cells of a reloaded checkpoint
(`memory.gmem_cell_dupes`). These tests read `perfbench/` and keep a
rename in `src/` from surfacing only in a traced benchmark run. The count
must keep working on the memory's cell keys, which are the cells of its
means."""

import inspect
import sys
from pathlib import Path

import numpy as np

import splatmem.attn as attn
import splatmem.cli as cli
import splatmem.memory as memory
import splatmem.synth as synth
from splatmem.cavf import FusionConfig
from splatmem.memory import init_memory
from test_memory import make_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import episode  # noqa: E402

HOOKS = episode._span_hooks(cli, memory, attn, synth)


def test_a_duplicated_key_is_counted():
    mem = init_memory(make_batch(200, hi=2.0, seed=41), FusionConfig(voxel_size=0.12))
    assert len(mem) > 2 and episode._cell_dupes(mem) == 0
    mem.batch.means[1] = mem.batch.means[0]
    assert episode._cell_dupes(mem) == 1


def test_every_hooked_function_exists():
    for module, attr, name, _ in HOOKS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"


def test_the_mha_hook_counts_a_real_call():
    (counts,) = [c for module, attr, _, c in HOOKS if (module, attr) == (attn, "mha")]
    rng = np.random.default_rng(3)
    args = (rng.normal(size=(5, 32)), rng.normal(size=(7, 32)), rng.normal(size=(7, 32)), 4)
    bound = inspect.signature(attn.mha).bind(*args).arguments
    assert counts(bound, attn.mha(*args)) == {
        "attn.query_rows": 5, "attn.key_rows": 7, "attn.score_elems": 4 * 5 * 7}
