"""Suite-wide set-up: BLAS on one thread.

With more BLAS threads than spare cores, the suite's many small matrix
products oversubscribe the cores and run several times slower. The
variables take effect only if set before numpy is first imported, which
pytest loads this file ahead of; values already in the environment win.
"""

import os
import sys
import warnings

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py; BLAS threads are not capped")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
