"""Gaussian-to-voxel semantic splatting with a persistent fused memory."""

import os

# One BLAS thread, set before numpy loads its BLAS: a float32 product in the
# attention rounds differently when its reduction is split across threads,
# and the checkpoint would then depend on the host's thread count.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .core import CameraFrame, PrimitiveBatch, cell_of, concat_batches
from .grid import VoxelGrid, load_vgrid, save_vgrid
from .splat import argmax_labels, render, splat_fields
from .cavf import FusionConfig, fuse, fusion_weights
from .attn import EncoderWeights, cca, dte_step, init_weights, mha, temporal_encoder_block
from .memory import GaussianMemory, init_memory, load_gmem, query_fov, save_gmem, update
from .metrics import MetricReport, iou, local_mask, observed_mask

__version__ = "0.1.0"
