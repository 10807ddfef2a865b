"""Run the suite with one BLAS thread, as the benchmark does, and fail any
test that leaves nodes on the global tape.

OpenBLAS reads its thread count once, when numpy loads it, so the
variables must be set before anything imports numpy. On a shared 2-core
machine, OpenBLAS's default of two threads once made a first
default-config training step take 979 ms, against 201-257 ms with one
thread. The CSVs are byte-identical either way.

Nodes a test leaves on the tape hold their arrays and are replayed by the
next ``backward`` in the process, so a later test's node count or memory
bound would depend on test order.
"""

import os
import sys

import pytest

assert "numpy" not in sys.modules, \
    "numpy was imported before tests/conftest.py could pin the BLAS threads"

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from structseg.tensor import tape  # noqa: E402  (after the BLAS pin)


@pytest.fixture(autouse=True)
def no_nodes_left_on_the_tape():
    yield
    left = [node.op for node in tape().nodes]
    tape().clear()
    assert not left, f"the test left {len(left)} nodes on the tape: {left}"
