"""Import `splatmem` before any test module loads numpy.

Importing `splatmem` pins BLAS to one thread, which takes effect only if
numpy's BLAS has not been loaded yet. The test modules import numpy first,
so without this the in-process end-to-end runs would use the host's thread
count, where the command line always runs on one thread.
"""

import splatmem
