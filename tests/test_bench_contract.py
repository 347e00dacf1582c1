"""The benchmark reads the memory's cells: `perfbench/episode.py` counts
the duplicate cells of a reloaded checkpoint (`memory.gmem_cell_dupes`).
The count must keep working on the memory's cell keys, which are the
cells of its means."""

import sys
from pathlib import Path

from splatmem.cavf import FusionConfig
from splatmem.memory import init_memory
from test_memory import make_batch

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import episode  # noqa: E402


def test_a_duplicated_key_is_counted():
    mem = init_memory(make_batch(200, hi=2.0, seed=41), FusionConfig(voxel_size=0.12))
    assert len(mem) > 2 and episode._cell_dupes(mem) == 0
    mem.batch.means[1] = mem.batch.means[0]
    assert episode._cell_dupes(mem) == 1
