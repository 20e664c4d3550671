import os

# One BLAS thread, as the package itself sets by default: conv2d already
# runs one range of images per core on its own threads, so a second BLAS
# thread per GEMM only contends with them. Set before numpy is first
# imported (this file loads before the package), which is when OpenBLAS
# reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.configuration import set_hypothesis_home_dir

# Hypothesis keeps its example database and constants cache in a temporary
# directory, removed at exit, so a test run writes nothing into the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="multipod-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile(
    "default",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
