"""Run the suite with one BLAS thread, as the benchmark does.

OpenBLAS reads its thread count once, when numpy loads it, so the
variables must be set before anything imports numpy. On a shared 2-core
machine, OpenBLAS's default of two threads once made a first
default-config training step take 979 ms, against 201-257 ms with one
thread. The CSVs are byte-identical either way.
"""

import os
import sys

assert "numpy" not in sys.modules, \
    "numpy was imported before tests/conftest.py could pin the BLAS threads"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
