"""Run the suite on one BLAS thread.

Blocked matrix products sum in an order that depends on the thread count, so
the bit-exact gates (the pinned training digests, the checkpoint hashes) hold
only for a fixed count. One thread is what the benchmark uses too. The
variables must be set before numpy loads its BLAS, which is why they live
here: pytest imports this file before any test module.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
