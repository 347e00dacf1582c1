"""Gaussian-to-voxel semantic splatting with a persistent fused memory."""

import os
import sys
import warnings

# One BLAS thread, set before numpy loads its BLAS: a float32 product in the
# attention rounds differently when its reduction is split across threads,
# and the checkpoint would then depend on the host's thread count.
if "numpy" in sys.modules and os.environ.get("OPENBLAS_NUM_THREADS") != "1":
    warnings.warn("numpy was imported before splatmem, too late to pin BLAS to one "
                  "thread: checkpoint feature bytes may differ", stacklevel=2)
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
