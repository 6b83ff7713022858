import os
import sys

# One BLAS thread, as the benchmark workers run: on a shared 2-core machine a second
# OpenBLAS thread only contends with other work (numpy is not imported yet here).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

sys.path.insert(0, os.path.dirname(__file__))
