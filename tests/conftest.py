"""Pin the test process to one BLAS thread, before numpy is first imported.

How OpenBLAS splits a matrix product over threads can change the last bits
of its result, so the golden digests in ``test_golden_artifacts.py`` hold
for one thread count only. They are taken with one thread, which is also how
the benchmark runs the program. OpenBLAS reads these variables once, when
numpy loads it, so they are set here, whatever the caller's environment says.
"""

import os
import sys
import warnings

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py pinned BLAS to one "
                  "thread; the golden digests may not match")
