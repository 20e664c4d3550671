"""Parallel-pod convolutional networks with feature fusion, built on a small
numpy-backed reverse-mode autodiff engine."""

import os

# One BLAS thread unless the caller chose otherwise: conv2d already runs one
# range of images per core, and a second BLAS thread per GEMM only contends
# with it. Set before numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
