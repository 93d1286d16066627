"""Keeps the tests directory importable so modules can share helpers.

The grid solves run LAPACK through numpy and SciPy.  Their BLAS starts one
thread per core unless told otherwise, and beside other busy processes
those threads wait on each other: criterion 9 took 49 s instead of 7 s
next to two grid solves on two cores.  One thread each, as the benchmark
and the CLI run them, set before numpy loads; a value already in the
environment wins.
"""

import os

from quadosc.cli import BLAS_THREAD_VARS

for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")
