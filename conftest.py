"""Run the tests with one BLAS thread, as the benchmark does, unless the caller
sets a thread count.  This must happen before numpy is first imported."""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
