"""Descriptor of the machine a result was measured on.

Per-conv GF/s figures read against this machine's own sgemm rate.
"""

from __future__ import annotations

import os
import statistics
import time

SGEMM_N = 1024
SGEMM_REPS = 9


def blas_threads_env():
    """Pin BLAS to one thread; call before numpy is imported. On a shared
    2-core host a second BLAS thread bought under a tenth of the tripod
    eval's speed and made its calls spread more, since it waits on a core
    other tenants also use. Returns the thread count in effect."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return 1


def sgemm_gflops(np):
    """Median rate of a float32 SGEMM_N-square matrix product."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    b = rng.standard_normal((SGEMM_N, SGEMM_N), dtype=np.float32)
    np.dot(a, b)
    times = []
    for _ in range(SGEMM_REPS):
        t = time.perf_counter()
        np.dot(a, b)
        times.append(time.perf_counter() - t)
    return 2 * SGEMM_N ** 3 / statistics.median(times) / 1e9


def describe(np, nproc, blas_threads):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    mem = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": nproc,
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads,
        "mem_total_mb": round(mem / 2**20),
        "sgemm_gflops": round(sgemm_gflops(np), 2),
    }
