"""Keeps the tests directory importable so modules can share helpers.

The grid solves run LAPACK through numpy and SciPy.  Their BLAS starts one
thread per core unless told otherwise, and beside other busy processes
those threads wait on each other: criterion 9 took 49 s instead of 7 s
next to two grid solves on two cores.  One thread each, as the benchmark
runs them, set before numpy loads; a value already in the environment
wins.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
