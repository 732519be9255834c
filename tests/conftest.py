"""Tier-1's one piece of shared setup: numpy's BLAS runs on one thread.

numpy's OpenBLAS splits an eigen-solve of rank past about 80 over a thread per
core.  On the small matrices the tests' references hand it (rank <= 300) the
threads' synchronisation costs more than it saves: eigvalsh of a rank-100
Hermitian matrix took 12 ms on two threads against 1.4 ms on one on a 2-core
machine, and 2.6 s against 17 ms at rank 295 while another process held a
core.  pytest imports this file before any test module, so before numpy; a
value already set in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
