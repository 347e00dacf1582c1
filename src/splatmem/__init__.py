"""Gaussian-to-voxel semantic splatting with a persistent fused memory."""

from .core import CameraFrame, PrimitiveBatch, cell_of, concat_batches
from .grid import VoxelGrid, load_vgrid, save_vgrid
from .splat import argmax_labels, render, splat_fields
from .cavf import FusionConfig, fuse, fusion_weights
from .attn import EncoderWeights, cca, dte_step, init_weights, mha, temporal_encoder_block
from .memory import GaussianMemory, init_memory, load_gmem, query_fov, save_gmem, update
from .metrics import MetricReport, iou, local_mask, observed_mask

__version__ = "0.1.0"
