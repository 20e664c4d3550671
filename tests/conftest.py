# The package pins BLAS to one thread unless the caller chose otherwise.
# Importing it loads no numpy, so importing it here, before numpy is first
# imported, sets the pin for the whole run.
import multipod  # noqa: F401

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


@pytest.fixture
def param_draws(monkeypatch):
    """The (seed, local name) of each parameter stream opened from now on: one per
    Kaiming draw of an initial weight."""
    import multipod.models as models
    opened = []
    stream = models._param_stream

    def counting(seed, local_name):
        opened.append((seed, local_name))
        return stream(seed, local_name)

    monkeypatch.setattr(models, "_param_stream", counting)
    return opened
